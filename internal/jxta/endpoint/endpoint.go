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
	"slices"
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

// Handler consumes a frame addressed to a registered service, through
// a view of it that the endpoint checked and routed it by. The frame is
// the handler's: the transport gave it away, nobody writes it, and the
// handler reads it in place, decodes it (View.Message) or forwards it
// (Forward). What it reads from the view, the message decoded from it
// and from are pieces of the frame: copied (strings.Clone) by whatever
// stores one beyond the call — a stored piece keeps the frame, and the
// read chunk the frame was cut from, alive.
type Handler func(v message.View, from Address)

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

// svcHandlers are one service's handlers: one per bound param, and the
// wildcard for the params bound to none.
type svcHandlers struct {
	byParam map[string]Handler
	any     Handler
}

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

	mu     sync.RWMutex
	routes []route // the transports, preferred first
	// srcAddr is the return address every frame carries: the preferred
	// transport's, resolved when it is added.
	srcAddr  Address
	handlers map[string]*svcHandlers // by service name
	closed   bool
}

var _ Sender = (*Service)(nil)

// New creates an endpoint service for the given peer identity.
func New(peerID jid.ID) *Service {
	return &Service{
		peerID:     peerID,
		started:    time.Now(),
		encodeHist: hist.New(),
		handlers:   make(map[string]*svcHandlers),
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
	if slices.ContainsFunc(s.routes, func(r route) bool { return r.t.Scheme() == scheme }) {
		return fmt.Errorf("endpoint: transport for %q already attached", scheme)
	}
	if len(s.routes) == 0 {
		s.srcAddr = t.LocalAddress()
	}
	s.routes = append(s.routes, route{prefix: scheme + "://", t: t})
	t.SetReceiver(s.receive)
	return nil
}

// route is a transport and the prefix of the addresses it serves: its
// scheme and "://".
type route struct {
	prefix string
	t      Transport
}

// LocalAddresses implements Sender.
func (s *Service) LocalAddresses() []Address {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Address, 0, len(s.routes))
	for _, r := range s.routes {
		out = append(out, r.t.LocalAddress())
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
	sh := s.handlers[svc]
	if sh == nil {
		sh = &svcHandlers{}
		s.handlers[svc] = sh
	}
	switch {
	case param == "" && sh.any == nil:
		sh.any = h
	case param != "" && sh.byParam[param] == nil:
		if sh.byParam == nil {
			sh.byParam = make(map[string]Handler)
		}
		sh.byParam[param] = h
	default:
		return fmt.Errorf("%w: %s/%s", ErrDupHandler, svc, param)
	}
	return nil
}

// UnregisterHandler removes the (svc, param) binding.
func (s *Service) UnregisterHandler(svc, param string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.handlers[svc]
	switch {
	case sh == nil:
		return
	case param == "":
		sh.any = nil
	default:
		delete(sh.byParam, param)
	}
	if sh.any == nil && len(sh.byParam) == 0 {
		delete(s.handlers, svc)
	}
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
	var room [8]message.Field
	fields, err := s.envelope(room[:0], svc, param, envelope)
	if err != nil {
		return nil, err
	}
	start, buf := time.Now(), takeFrameBuf()
	frame, err := msg.MarshalAppend(buf, fields...)
	return s.encoded(start, buf, frame, err)
}

// Forward writes the frame this peer sends on for the frame v views,
// addressed to the (svc, param) handler: v's bytes with this peer's hop
// stamped on, the stamps in place of the elements of their names
// (message.Forward), and the endpoint's envelope. It is the frame
// EncodeFrame would write for the message decoded from v and stamped,
// without the message. The frame comes from EncodeFrame's pool; v's
// frame is only read.
func (s *Service) Forward(svc, param string, v message.View, stamps ...message.Element) ([]byte, error) {
	var room [3]message.Field
	fields, err := s.envelope(room[:0], svc, param, nil)
	if err != nil {
		return nil, err
	}
	start, buf := time.Now(), takeFrameBuf()
	frame, err := message.Forward(buf, &v, s.peerID, stamps, fields...)
	return s.encoded(start, buf, frame, err)
}

// envelope appends to fields the envelope of a frame to the (svc,
// param) handler: the fields of the layers above, then destination and
// return address. Room for what a propagated event carries
// (rdv:Op/DSvc/DParam, and a baseline wire pipe's wire:ID) keeps the
// list on its caller's stack.
func (s *Service) envelope(fields []message.Field, svc, param string, upper []message.Field) ([]message.Field, error) {
	s.mu.RLock()
	closed, srcAddr := s.closed, s.srcAddr
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	return append(append(fields, upper...),
		message.Field{Namespace: ElemNamespace, Name: elemDstSvc, Value: svc},
		message.Field{Namespace: ElemNamespace, Name: elemDstParam, Value: param},
		message.Field{Namespace: ElemNamespace, Name: elemSrcAddr, Value: string(srcAddr)}), nil
}

// takeFrameBuf takes an empty frame buffer from the pool.
func takeFrameBuf() []byte {
	box := frameBufPool.Get().(*[]byte)
	buf := *box
	*box = nil
	boxPool.Put(box)
	return buf[:0]
}

// encoded finishes a frame written into buf since start: it times the
// encode, or puts buf back when the frame was refused.
func (s *Service) encoded(start time.Time, buf, frame []byte, err error) ([]byte, error) {
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
	var t Transport
	for _, r := range s.routes {
		if strings.HasPrefix(string(to), r.prefix) {
			t = r.t
			break
		}
	}
	s.mu.RUnlock()
	if t == nil {
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

// receive checks a frame and dispatches a view of it to the registered
// handler. It decodes nothing: a handler that wants the message decodes
// it.
func (s *Service) receive(frame []byte) {
	v, err := message.NewView(frame)
	if err != nil {
		s.stats.decodeErrors.Add(1)
		return
	}
	svc := v.Text(ElemNamespace, elemDstSvc)
	param := v.Text(ElemNamespace, elemDstParam)
	from := Address(v.Text(ElemNamespace, elemSrcAddr))

	s.stats.msgsIn.Add(1)
	s.stats.bytesIn.Add(int64(len(frame)))
	// A service that binds no param on its own, as the rendezvous
	// binds none, is found by one lookup of its name.
	var h Handler
	s.mu.RLock()
	if sh := s.handlers[svc]; sh != nil {
		if h = sh.byParam[param]; h == nil {
			h = sh.any
		}
	}
	closed := s.closed
	s.mu.RUnlock()
	if h == nil {
		s.stats.noHandlerDrop.Add(1)
		return
	}
	if closed {
		return
	}
	h(v, from)
}

// Snapshot implements obs.Provider: the endpoint counters and uptime,
// in the shared obs vocabulary.
func (s *Service) Snapshot() obs.Snapshot {
	s.mu.RLock()
	transports := len(s.routes)
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
	rs := s.routes // no transport is added once closed
	s.mu.Unlock()
	var firstErr error
	for _, r := range rs {
		if err := r.t.Close(); err != nil && firstErr == nil {
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
