// Package wire implements the JXTA wire service: many-to-many propagated
// pipes.
//
// Where a unicast pipe binds one sender to one receiver, a wire pipe
// fans every message out to all peers holding an input end, using
// rendezvous propagation. Messages loop back to the sender's own input
// pipe (a publisher that also subscribes sees its own traffic), and the
// replays a meshed topology inevitably produces are dropped before they
// get here, by the duplicate cache of the peer's rendezvous service —
// the functionality the paper's SR-JXTA application had to rebuild by
// hand (§4.4 footnote 1).
//
// A send copies nothing. The pipe ID travels as an envelope field the
// rendezvous hands down to the frame encoder, and the loopback gives the
// local listener the sender's message itself (see Listener).
package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/obs"
)

// ServiceName is the endpoint service name of the wire service (JXTA's
// WireService.WireName).
const ServiceName = "jxta.service.wire"

// Message element names, namespace "wire".
const (
	elemNS = "wire"
	elemID = "ID"
)

// Errors.
var (
	ErrClosed   = errors.New("wire: closed")
	ErrDupInput = errors.New("wire: input pipe already exists")
)

// Propagator fans messages into the group, writing the envelope fields
// into the frames it sends and leaving msg as it is; the rendezvous
// service implements it.
type Propagator interface {
	Propagate(msg *message.Message, dsvc, dparam string, envelope ...message.Field) error
}

// Endpoint is the endpoint capability the wire service needs.
type Endpoint interface {
	endpoint.Sender
	RegisterHandler(svc, param string, h endpoint.Handler) error
	UnregisterHandler(svc, param string)
}

// Config configures a wire Service.
type Config struct {
	// Group scopes the service to a peer group.
	Group string
}

// wireCounters are lock-free: the per-message send and deliver paths
// bump these without touching s.mu.
type wireCounters struct {
	sent     atomic.Int64
	received atomic.Int64
	// propFailures counts sends whose mesh propagation errored
	// (partition, all peers unreachable). The local loopback may still
	// have delivered, so this is a reachability signal, not data loss.
	propFailures atomic.Int64
}

// Service manages the propagated pipes of one peer in one group.
type Service struct {
	ep    Endpoint
	prop  Propagator
	cfg   Config
	stats wireCounters

	mu     sync.Mutex
	inputs map[jid.ID]*InputPipe
	closed bool
}

// New creates the wire service and registers its endpoint handler.
func New(ep Endpoint, prop Propagator, cfg Config) (*Service, error) {
	s := &Service{
		ep:     ep,
		prop:   prop,
		cfg:    cfg,
		inputs: make(map[jid.ID]*InputPipe),
	}
	if err := ep.RegisterHandler(ServiceName, cfg.Group, s.handle); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return s, nil
}

// Close tears down the input pipes and unregisters the handler.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	inputs := make([]*InputPipe, 0, len(s.inputs))
	for _, in := range s.inputs {
		inputs = append(inputs, in)
	}
	s.mu.Unlock()
	for _, in := range inputs {
		in.Close()
	}
	s.ep.UnregisterHandler(ServiceName, s.cfg.Group)
}

// CreateInputPipe opens the receiving end of the propagated pipe id on
// this peer.
func (s *Service) CreateInputPipe(id jid.ID) (*InputPipe, error) {
	in := &InputPipe{svc: s, id: id}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.inputs[id]; ok {
		return nil, fmt.Errorf("%w: %v", ErrDupInput, id)
	}
	s.inputs[id] = in
	return in, nil
}

// CreateOutputPipe opens a sending end of the propagated pipe id.
// Propagated pipes need no binding resolution: the rendezvous mesh is the
// destination.
func (s *Service) CreateOutputPipe(id jid.ID) (*OutputPipe, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	envelope := []message.Field{{Namespace: elemNS, Name: elemID, Value: string(id.AppendWire(nil))}}
	return &OutputPipe{svc: s, id: id, envelope: envelope}, nil
}

// Snapshot implements obs.Provider.
func (s *Service) Snapshot() obs.Snapshot {
	s.mu.Lock()
	inputs := len(s.inputs)
	s.mu.Unlock()
	return obs.Snapshot{
		Name:    "wire",
		Version: 2, // 1 had a duplicates counter, for a cache that is gone
		Counters: map[string]int64{
			"sent":               s.stats.sent.Load(),
			"received":           s.stats.received.Load(),
			"propagate_failures": s.stats.propFailures.Load(),
		},
		Gauges: map[string]float64{
			"input_pipes": float64(inputs),
		},
	}
}

// handle delivers propagated wire messages to the local input pipe.
//
// There is no duplicate cache here. A propagated message gets to this
// handler through the peer's rendezvous service alone (handleProp →
// DeliverLocal), which has just asked its own cache — same TTL, same
// capacity — about the same message ID and dropped the message if it
// was known; and a sender's own message is marked there by Propagate
// before the first frame that could echo leaves. A second cache keyed
// the same way could only ever agree. A frame addressed to this service
// directly, which no peer of this tree sends, is not deduplicated at
// the message level: behind it is the engine's event-level cache.
func (s *Service) handle(msg *message.Message, _ endpoint.Address) {
	id, err := msg.GetID(elemNS, elemID)
	if err != nil {
		return
	}
	s.mu.Lock()
	in, ok := s.inputs[id]
	s.mu.Unlock()
	if !ok {
		return
	}
	s.stats.received.Add(1)
	in.deliver(msg)
}

// send propagates a message on a wire pipe and loops it back locally.
// msg is not copied and not written: the local listener and Propagate
// read the same message.
func (s *Service) send(out *OutputPipe, msg *message.Message) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	in := s.inputs[out.id]
	s.mu.Unlock()
	s.stats.sent.Add(1)

	// Local loopback first: a peer subscribing to its own wire hears
	// itself regardless of mesh connectivity.
	if in != nil {
		s.stats.received.Add(1)
		in.deliver(msg)
	}
	if err := s.prop.Propagate(msg, ServiceName, s.cfg.Group, out.envelope...); err != nil {
		if errors.Is(err, rendezvous.ErrNoPeers) && in != nil {
			return nil // delivered locally; an isolated peer is not an error
		}
		s.stats.propFailures.Add(1)
		return fmt.Errorf("wire: propagate: %w", err)
	}
	return nil
}
