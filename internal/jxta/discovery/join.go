package discovery

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// Errors JoinGroup returns for an advertisement it cannot join from.
var (
	ErrNoWireInAdv = errors.New("discovery: advertisement has no wire service pipe")
	ErrWrongType   = errors.New("discovery: advertised wire pipe is not propagated")
)

// JoinGroup joins the group a peer-group advertisement describes,
// mirroring the paper's WireServiceFinder: it builds the group's wire
// service on this service's endpoint and rendezvous, leases the group,
// and returns the wire with the propagated pipe advertisement to open
// input and output pipes with. The advertisement came from another
// peer, so both are checked: a wire service with a pipe, and a pipe of
// the one type a wire carries. A group joined here already is returned
// as it is; Close closes the wires and leaves the groups.
func (s *Service) JoinGroup(pg *adv.PeerGroupAdv) (*wire.Service, *adv.PipeAdv, error) {
	svc, ok := pg.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return nil, nil, fmt.Errorf("%w (group %q)", ErrNoWireInAdv, pg.Name)
	}
	if svc.Pipe.Type != adv.PipePropagate {
		return nil, nil, fmt.Errorf("%w: %s (group %q)", ErrWrongType, svc.Pipe.Type, pg.Name)
	}
	param := pg.GroupID.String()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	w, ok := s.joined[pg.GroupID]
	if !ok {
		var err error
		if w, err = wire.New(s.ep, s.rdv, wire.Config{Group: param}); err != nil {
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("discovery: join group %q: %w", pg.Name, err)
		}
		s.joined[pg.GroupID] = w
	}
	s.mu.Unlock()
	s.rdv.Join(param)
	return w, svc.Pipe, nil
}
