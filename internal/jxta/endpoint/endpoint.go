// Package endpoint implements the JXTA endpoint layer: the boundary
// between protocol services and concrete transports.
//
// An endpoint Service owns one or more Transports (TCP, in-memory
// simulated WAN, ...), demultiplexes incoming messages to registered
// service handlers by (service name, service parameter), and offers
// Send for addressing a message to a remote peer's service. Peers may
// have multiple network interfaces (multiple transports); the endpoint
// hides which one a message used.
//
// Everything above this layer deals in peer IDs and pipe IDs; physical
// addresses show up above it only as return addresses (a rendezvous
// lease, a discovery query's SrcAddr).
//
// The endpoint counts every frame in and out. Snapshot serves those
// counters and the uptime to the stats registry, which is where a peer
// reports its traffic (/stats on the admin surface).
package endpoint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/hist"
)

// Address is a transport-qualified address such as "tcp://10.0.0.1:9701"
// or "mem://node3".
type Address string

// Scheme returns the transport scheme ("tcp", "mem", ...).
func (a Address) Scheme() string {
	if i := strings.Index(string(a), "://"); i >= 0 {
		return string(a)[:i]
	}
	return ""
}

// Host returns the transport-specific location part.
func (a Address) Host() string {
	if i := strings.Index(string(a), "://"); i >= 0 {
		return string(a)[i+3:]
	}
	return string(a)
}

// MakeAddress assembles an Address from scheme and host.
func MakeAddress(scheme, host string) Address {
	return Address(scheme + "://" + host)
}

// Transport moves opaque frames between addresses sharing one scheme.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Scheme returns the address scheme this transport serves.
	Scheme() string
	// LocalAddress returns the address remote peers can reach us at.
	LocalAddress() Address
	// Send delivers one frame to the given address. It may fail fast
	// (unreachable) or succeed without delivery guarantee, like a
	// datagram over an established connection. Implementations must not
	// retain frame after returning: the endpoint recycles frame buffers.
	Send(to Address, frame []byte) error
	// SetReceiver installs the inbound frame callback. Must be called
	// exactly once, before the first frame can arrive. The transport
	// gives frame away: it never writes those bytes again, the callback
	// may keep them for as long as it likes, and nobody else may write
	// them either — the endpoint decodes a message out of them in place.
	// Frames may share memory (tcpnet cuts them from 64 kB read chunks;
	// netsim hands over a private copy), so what keeps a piece of one
	// for long keeps its neighbours too: see message.Message.Text.
	SetReceiver(func(frame []byte))
	// Close releases the transport's resources.
	Close() error
}

// Handler consumes a message addressed to a registered service. A
// message off a transport was decoded for this one call and is the
// handler's to keep or change. Its names and payloads, every string
// read from it, and from, are pieces of a received frame: never
// written, and copied (strings.Clone) by whatever stores one beyond the
// call — a stored piece keeps the frame, and the read chunk the frame
// was cut from, alive.
type Handler func(msg *message.Message, from Address)

// Sender is the message-sending capability exported to upper layers;
// *Service implements it.
type Sender interface {
	// Send addresses msg to the (svc, param) handler at the remote
	// address.
	Send(to Address, svc, param string, msg *message.Message) error
	// LocalAddresses lists the addresses remote peers can use to reach
	// this peer, best first.
	LocalAddresses() []Address
	// PeerID returns the local peer's identity.
	PeerID() jid.ID
}

// Envelope element names, in the "ep" namespace.
const (
	ElemNamespace = "ep"
	elemDstSvc    = "DstSvc"
	elemDstParam  = "DstParam"
	elemSrcAddr   = "SrcAddr"
)

// Errors.
var (
	ErrNoTransport   = errors.New("endpoint: no transport for scheme")
	ErrClosed        = errors.New("endpoint: service closed")
	ErrDupHandler    = errors.New("endpoint: handler already registered")
	ErrBadDestFormat = errors.New("endpoint: message lacks destination elements")
)

// epCounters are the endpoint's traffic counters, served by Snapshot:
// every frame in and out bumps these, so they must never contend on s.mu.
type epCounters struct {
	msgsIn        atomic.Int64
	msgsOut       atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
	noHandlerDrop atomic.Int64
	decodeErrors  atomic.Int64
	sendErrors    atomic.Int64
}

type handlerKey struct{ svc, param string }

// frameBufPool recycles marshal buffers across Send calls. Transports
// must not retain frames (see Transport.Send), so a buffer can go back
// in the pool as soon as the transport returns. A pool holds pointers;
// boxPool holds the emptied ones, so that handing a frame out as a plain
// slice and taking it back allocates no box either way.
var (
	frameBufPool = sync.Pool{New: func() any { return new([]byte) }}
	boxPool      = sync.Pool{New: func() any { return new([]byte) }}
)

// Service is the endpoint service of one peer.
type Service struct {
	peerID  jid.ID
	started time.Time
	stats   epCounters
	// encodeHist times frame enveloping + marshal (the wire-encode
	// stage); recording is alloc-free, so it is always on.
	encodeHist *hist.Hist

	mu         sync.RWMutex
	transports map[string]Transport
	order      []string // scheme registration order: preferred first
	handlers   map[handlerKey]Handler
	closed     bool
}

var _ Sender = (*Service)(nil)

// New creates an endpoint service for the given peer identity.
func New(peerID jid.ID) *Service {
	return &Service{
		peerID:     peerID,
		started:    time.Now(),
		encodeHist: hist.New(),
		transports: make(map[string]Transport),
		handlers:   make(map[handlerKey]Handler),
	}
}

// PeerID implements Sender.
func (s *Service) PeerID() jid.ID { return s.peerID }

// AddTransport attaches a transport and starts receiving from it.
// Transports added first are preferred by LocalAddresses.
func (s *Service) AddTransport(t Transport) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	scheme := t.Scheme()
	if _, ok := s.transports[scheme]; ok {
		return fmt.Errorf("endpoint: transport for %q already attached", scheme)
	}
	s.transports[scheme] = t
	s.order = append(s.order, scheme)
	t.SetReceiver(s.receive)
	return nil
}

// LocalAddresses implements Sender.
func (s *Service) LocalAddresses() []Address {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Address, 0, len(s.order))
	for _, scheme := range s.order {
		out = append(out, s.transports[scheme].LocalAddress())
	}
	return out
}

// RegisterHandler binds a handler to (svc, param). An empty param
// registers a wildcard receiving any param not bound more specifically.
func (s *Service) RegisterHandler(svc, param string, h Handler) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	k := handlerKey{svc, param}
	if _, ok := s.handlers[k]; ok {
		return fmt.Errorf("%w: %s/%s", ErrDupHandler, svc, param)
	}
	s.handlers[k] = h
	return nil
}

// UnregisterHandler removes the (svc, param) binding.
func (s *Service) UnregisterHandler(svc, param string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.handlers, handlerKey{svc, param})
}

// Send implements Sender: it envelopes msg with the destination service
// coordinates and this peer's return address, then hands the frame to the
// transport matching the destination scheme. The marshal buffer comes
// from a pool; transports must not retain it.
func (s *Service) Send(to Address, svc, param string, msg *message.Message) error {
	frame, err := s.EncodeFrame(svc, param, msg)
	if err != nil {
		return err
	}
	err = s.SendFrame(to, frame)
	RecycleFrame(frame)
	return err
}

// EncodeFrame marshals msg into a single wire frame addressed to the
// (svc, param) handler, without sending it. Fan-out paths use it to
// marshal once and SendFrame the same bytes to many addresses. The
// envelope — the fields of the layers above, if the caller passes any,
// then destination and return address — is written into the frame and
// never into msg, which is only read: a caller may go on sharing it.
// The returned buffer comes from a pool; callers that are done with it
// may return it via RecycleFrame (optional — a dropped frame is simply
// collected).
func (s *Service) EncodeFrame(svc, param string, msg *message.Message, envelope ...message.Field) ([]byte, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	var srcAddr Address
	if len(s.order) > 0 {
		srcAddr = s.transports[s.order[0]].LocalAddress()
	}
	s.mu.RUnlock()

	start := time.Now()
	box := frameBufPool.Get().(*[]byte)
	buf := *box
	*box = nil
	boxPool.Put(box)
	// Room for what a propagated event carries (rdv:Op/DSvc/DParam, and
	// a baseline wire pipe's wire:ID) without the list leaving the stack.
	var room [8]message.Field
	fields := append(append(room[:0], envelope...),
		message.Field{Namespace: ElemNamespace, Name: elemDstSvc, Value: svc},
		message.Field{Namespace: ElemNamespace, Name: elemDstParam, Value: param},
		message.Field{Namespace: ElemNamespace, Name: elemSrcAddr, Value: string(srcAddr)})
	frame, err := msg.MarshalAppend(buf[:0], fields...)
	if err != nil {
		RecycleFrame(buf)
		return nil, fmt.Errorf("endpoint: marshal: %w", err)
	}
	s.encodeHist.Observe(time.Since(start))
	return frame, nil
}

// RecycleFrame returns a frame obtained from EncodeFrame to the buffer
// pool. The caller must not touch the frame afterwards.
func RecycleFrame(frame []byte) {
	box := boxPool.Get().(*[]byte)
	*box = frame
	frameBufPool.Put(box)
}

// SendFrame hands a pre-encoded frame to the transport serving the
// destination's scheme.
func (s *Service) SendFrame(to Address, frame []byte) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	t, ok := s.transports[to.Scheme()]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q (to %s)", ErrNoTransport, to.Scheme(), to)
	}
	if err := t.Send(to, frame); err != nil {
		s.stats.sendErrors.Add(1)
		return fmt.Errorf("endpoint: send to %s: %w", to, err)
	}
	s.stats.msgsOut.Add(1)
	s.stats.bytesOut.Add(int64(len(frame)))
	return nil
}

// receive decodes a frame and dispatches it to the registered handler.
func (s *Service) receive(frame []byte) {
	msg, err := message.Unmarshal(frame)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	svc := msg.Text(ElemNamespace, elemDstSvc)
	param := msg.Text(ElemNamespace, elemDstParam)
	from := Address(msg.Text(ElemNamespace, elemSrcAddr))

	s.stats.msgsIn.Add(1)
	s.stats.bytesIn.Add(int64(len(frame)))
	s.mu.RLock()
	h, ok := s.handlers[handlerKey{svc, param}]
	if !ok {
		h, ok = s.handlers[handlerKey{svc, ""}]
	}
	closed := s.closed
	s.mu.RUnlock()
	if !ok {
		s.stats.noHandlerDrop.Add(1)
		return
	}
	if closed {
		return
	}
	h(msg, from)
}

// Snapshot implements obs.Provider: the endpoint counters and uptime,
// in the shared obs vocabulary.
func (s *Service) Snapshot() obs.Snapshot {
	s.mu.RLock()
	transports := len(s.transports)
	s.mu.RUnlock()
	return obs.Snapshot{
		Name:    "endpoint",
		Version: 1,
		Counters: map[string]int64{
			"msgs_in":         s.stats.msgsIn.Load(),
			"msgs_out":        s.stats.msgsOut.Load(),
			"bytes_in":        s.stats.bytesIn.Load(),
			"bytes_out":       s.stats.bytesOut.Load(),
			"dropped":         s.stats.noHandlerDrop.Load(),
			"decode_failures": s.stats.decodeErrors.Load(),
			"send_failures":   s.stats.sendErrors.Load(),
		},
		Gauges: map[string]float64{
			"transports": float64(transports),
			"uptime_s":   time.Since(s.started).Seconds(),
		},
		Hists: map[string]hist.Snapshot{
			"encode_us": s.encodeHist.Snapshot(),
		},
	}
}

// Close shuts down all transports. Handlers registered remain but no
// further traffic flows.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ts := make([]Transport, 0, len(s.transports))
	for _, t := range s.transports {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var firstErr error
	for _, t := range ts {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Destination reports the service coordinates carried by a received
// message envelope — useful to relays that must re-deliver verbatim.
func Destination(msg *message.Message) (svc, param string, err error) {
	svc = msg.Text(ElemNamespace, elemDstSvc)
	param = msg.Text(ElemNamespace, elemDstParam)
	if svc == "" {
		return "", "", ErrBadDestFormat
	}
	return svc, param, nil
}
