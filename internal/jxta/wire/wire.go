// Package wire implements the JXTA wire service: many-to-many propagated
// pipes.
//
// Where a unicast pipe binds one sender to one receiver, a wire pipe
// fans every message out to all peers holding an input end, using
// rendezvous propagation. Messages loop back to the sender's own input
// pipe (a publisher that also subscribes sees its own traffic) and a
// duplicate cache suppresses the replays that a meshed topology
// inevitably produces — the functionality the paper's SR-JXTA
// application had to rebuild by hand (§4.4 footnote 1).
package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/seen"
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
	ErrClosed    = errors.New("wire: closed")
	ErrDupInput  = errors.New("wire: input pipe already exists")
	ErrWrongType = errors.New("wire: advertisement type mismatch")
)

// Propagator fans messages into the group; the rendezvous service
// implements it.
type Propagator interface {
	Propagate(msg *message.Message, dsvc, dparam string) error
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
	sent       atomic.Int64
	received   atomic.Int64
	duplicates atomic.Int64
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
	seen  *seen.Cache
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
		seen:   seen.New(),
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

// CreateInputPipe opens the receiving end of a propagated pipe on this
// peer.
func (s *Service) CreateInputPipe(pa *adv.PipeAdv) (*InputPipe, error) {
	if pa.Type != adv.PipePropagate {
		return nil, fmt.Errorf("%w: %s (want %s)", ErrWrongType, pa.Type, adv.PipePropagate)
	}
	in := &InputPipe{svc: s, id: pa.PipeID, name: pa.Name}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.inputs[pa.PipeID]; ok {
		return nil, fmt.Errorf("%w: %v", ErrDupInput, pa.PipeID)
	}
	s.inputs[pa.PipeID] = in
	return in, nil
}

// CreateOutputPipe opens a sending end. Propagated pipes need no binding
// resolution: the rendezvous mesh is the destination.
func (s *Service) CreateOutputPipe(pa *adv.PipeAdv) (*OutputPipe, error) {
	if pa.Type != adv.PipePropagate {
		return nil, fmt.Errorf("%w: %s (want %s)", ErrWrongType, pa.Type, adv.PipePropagate)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return &OutputPipe{svc: s, id: pa.PipeID, name: pa.Name}, nil
}

// Snapshot implements obs.Provider.
func (s *Service) Snapshot() obs.Snapshot {
	s.mu.Lock()
	inputs := len(s.inputs)
	s.mu.Unlock()
	return obs.Snapshot{
		Name:    "wire",
		Version: 1,
		Counters: map[string]int64{
			"sent":               s.stats.sent.Load(),
			"received":           s.stats.received.Load(),
			"duplicates":         s.stats.duplicates.Load(),
			"propagate_failures": s.stats.propFailures.Load(),
		},
		Gauges: map[string]float64{
			"input_pipes": float64(inputs),
		},
	}
}

// SeenCache exposes the duplicate-suppression cache for the "seen"
// subsystem aggregation.
func (s *Service) SeenCache() *seen.Cache { return s.seen }

// handle delivers propagated wire messages to the local input pipe.
// Dedupe runs first: duplicate frames are the common case in a meshed
// topology, and dropping them must not pay for parsing the pipe ID.
func (s *Service) handle(msg *message.Message, _ endpoint.Address) {
	if !s.seen.Observe(msg.ID) {
		s.stats.duplicates.Add(1)
		return
	}
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
func (s *Service) send(id jid.ID, msg *message.Message) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	in := s.inputs[id]
	s.mu.Unlock()
	s.stats.sent.Add(1)

	// COW envelope: Dup shares the caller's elements (the message may be
	// fanning out across many attachments) and ReplaceID clones only the
	// element headers before writing this pipe's ID. What used to be a
	// deep copy of the payload per attachment is now O(1).
	out := msg.Dup()
	out.ReplaceID(elemNS, elemID, id)
	// Mark our own message as seen so a mesh echo is not re-delivered.
	s.seen.Observe(out.ID)
	// Local loopback first: a peer subscribing to its own wire hears
	// itself regardless of mesh connectivity. The loopback Dup (also
	// O(1)) isolates element-list mutations on the delivered copy from
	// the copy still headed into the mesh; payload BYTES are shared —
	// the Listener contract forbids mutating them in place.
	if in != nil {
		s.stats.received.Add(1)
		in.deliver(out.Dup())
	}
	if err := s.prop.Propagate(out, ServiceName, s.cfg.Group); err != nil {
		if errors.Is(err, rendezvous.ErrNoPeers) && in != nil {
			return nil // delivered locally; an isolated peer is not an error
		}
		s.stats.propFailures.Add(1)
		return fmt.Errorf("wire: propagate: %w", err)
	}
	return nil
}
