package srjxta

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// WireServiceFinder is the hand-written analogue of the paper's
// Figure 17: given a peer-group advertisement it (1) instantiates the
// group and looks up its wire service, (2) creates the input and output
// pipes, and (3) sends events on the output pipe.
type WireServiceFinder struct {
	peer  *peer.Peer
	pgAdv *adv.PeerGroupAdv

	group   *peer.Group
	pipeAdv *adv.PipeAdv
}

// NewWireServiceFinder pairs the peer with the advertisement to exploit.
func NewWireServiceFinder(p *peer.Peer, pgAdv *adv.PeerGroupAdv) *WireServiceFinder {
	return &WireServiceFinder{peer: p, pgAdv: pgAdv}
}

// LookupWireService joins the advertised group and extracts the wire
// service's pipe advertisement — the paper's newPeerGroup + init +
// lookupService sequence.
func (w *WireServiceFinder) LookupWireService() error {
	if w.peer == nil || w.pgAdv == nil {
		return errors.New("srjxta: unable to lookup the wire service")
	}
	svc, ok := w.pgAdv.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return errors.New("srjxta: advertisement has no wire service")
	}
	group, pipeAdv, err := w.peer.JoinGroupFromAdv(w.pgAdv)
	if err != nil {
		return fmt.Errorf("srjxta: join group: %w", err)
	}
	w.group = group
	w.pipeAdv = pipeAdv
	return nil
}

// CreateInputPipe opens the receiving end of the wire pipe.
func (w *WireServiceFinder) CreateInputPipe() (*wire.InputPipe, error) {
	if w.group == nil {
		return nil, errors.New("srjxta: unable to create the input pipe")
	}
	in, err := w.group.Wire.CreateInputPipe(w.pipeAdv)
	if err != nil {
		return nil, fmt.Errorf("srjxta: unable to create the input pipe: %w", err)
	}
	return in, nil
}

// CreateOutputPipe opens the sending end of the wire pipe.
func (w *WireServiceFinder) CreateOutputPipe() (*wire.OutputPipe, error) {
	if w.group == nil {
		return nil, errors.New("srjxta: unable to create the output pipe")
	}
	out, err := w.group.Wire.CreateOutputPipe(w.pipeAdv)
	if err != nil {
		return nil, fmt.Errorf("srjxta: unable to create the output pipe: %w", err)
	}
	return out, nil
}
