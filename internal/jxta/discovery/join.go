package discovery

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// Errors JoinGroup returns for an advertisement it cannot join from.
var (
	ErrNoWireInAdv = errors.New("discovery: advertisement has no wire service pipe")
	ErrWrongType   = errors.New("discovery: advertised wire pipe is not propagated")
)

// JoinGroup joins, on p, the group a peer-group advertisement describes,
// mirroring the paper's WireServiceFinder: it extracts the embedded wire
// service and returns the propagated pipe advertisement to open input
// and output pipes with. The advertisement came from another peer, so
// both are checked: a wire service with a pipe, and a pipe of the one
// type a wire carries. A group p already joined is returned as it is.
func JoinGroup(p *peer.Peer, pg *adv.PeerGroupAdv) (*peer.Group, *adv.PipeAdv, error) {
	svc, ok := pg.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return nil, nil, fmt.Errorf("%w (group %q)", ErrNoWireInAdv, pg.Name)
	}
	if svc.Pipe.Type != adv.PipePropagate {
		return nil, nil, fmt.Errorf("%w: %s (group %q)", ErrWrongType, svc.Pipe.Type, pg.Name)
	}
	g, err := p.JoinGroup(pg.GroupID, pg.Name)
	if err != nil {
		if errors.Is(err, peer.ErrAlreadyIn) {
			if existing, found := p.Group(pg.GroupID); found {
				return existing, svc.Pipe, nil
			}
		}
		return nil, nil, err
	}
	return g, svc.Pipe, nil
}
