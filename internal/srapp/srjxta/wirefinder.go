package srjxta

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// WireServiceFinder is the hand-written analogue of the paper's
// Figure 17: given a peer-group advertisement it (1) instantiates the
// group and looks up its wire service, (2) creates the input and output
// pipes, and (3) sends events on the output pipe.
type WireServiceFinder struct {
	disc  *discovery.Service
	pgAdv *adv.PeerGroupAdv

	wire    *wire.Service
	pipeAdv *adv.PipeAdv
}

// NewWireServiceFinder pairs the peer's discovery service, which joins
// the groups it finds, with the advertisement to exploit.
func NewWireServiceFinder(disc *discovery.Service, pgAdv *adv.PeerGroupAdv) *WireServiceFinder {
	return &WireServiceFinder{disc: disc, pgAdv: pgAdv}
}

// LookupWireService joins the advertised group and extracts the wire
// service's pipe advertisement — the paper's newPeerGroup + init +
// lookupService sequence.
func (w *WireServiceFinder) LookupWireService() error {
	if w.disc == nil || w.pgAdv == nil {
		return errors.New("srjxta: unable to lookup the wire service")
	}
	svc, ok := w.pgAdv.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return errors.New("srjxta: advertisement has no wire service")
	}
	ws, pipeAdv, err := w.disc.JoinGroup(w.pgAdv)
	if err != nil {
		return fmt.Errorf("srjxta: join group: %w", err)
	}
	w.wire = ws
	w.pipeAdv = pipeAdv
	return nil
}

// CreateInputPipe opens the receiving end of the wire pipe.
func (w *WireServiceFinder) CreateInputPipe() (*wire.InputPipe, error) {
	if w.wire == nil {
		return nil, errors.New("srjxta: unable to create the input pipe")
	}
	in, err := w.wire.CreateInputPipe(w.pipeAdv.PipeID)
	if err != nil {
		return nil, fmt.Errorf("srjxta: unable to create the input pipe: %w", err)
	}
	return in, nil
}

// CreateOutputPipe opens the sending end of the wire pipe.
func (w *WireServiceFinder) CreateOutputPipe() (*wire.OutputPipe, error) {
	if w.wire == nil {
		return nil, errors.New("srjxta: unable to create the output pipe")
	}
	out, err := w.wire.CreateOutputPipe(w.pipeAdv.PipeID)
	if err != nil {
		return nil, fmt.Errorf("srjxta: unable to create the output pipe: %w", err)
	}
	return out, nil
}
