// Package resolver implements the JXTA Peer Resolver Protocol (PRP).
//
// The resolver sits just above the transport: services register named
// handlers with it, and the resolver routes each query or response
// message to the right handler — the more handlers are registered, the
// more protocols a peer can take part in. Queries can be sent directly
// to a known peer or propagated through the rendezvous mesh; responses
// travel straight back to the querier's address.
//
// The Peer Discovery Protocol and the Peer Information Protocol are
// resolver clients.
package resolver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// ServiceName is the endpoint service name of the resolver.
const ServiceName = "jxta.resolver"

// Message element names, namespace "prp".
const (
	elemNS      = "prp"
	elemKind    = "Kind"
	elemHandler = "Handler"
	elemQID     = "QID"
	elemPayload = "Payload"
	elemSrcAddr = "SrcAddr"
)

const (
	kindQuery    = "query"
	kindResponse = "response"
)

// Errors.
var (
	ErrDupHandler     = errors.New("resolver: handler already registered")
	ErrUnknownHandler = errors.New("resolver: no such handler")
	ErrNoPropagator   = errors.New("resolver: no propagator configured")
)

// Query is a request dispatched to a named handler on a remote peer.
type Query struct {
	// Handler names the resolver handler the query is for.
	Handler string
	// ID correlates responses with the query. Unique per issuing peer.
	ID uint64
	// Src is the querying peer.
	Src jid.ID
	// Payload is the handler-specific request body.
	Payload []byte
}

// Response answers a Query.
type Response struct {
	// Handler names the resolver handler the response is for.
	Handler string
	// QueryID echoes the query's ID.
	QueryID uint64
	// Src is the responding peer.
	Src jid.ID
	// Payload is the handler-specific response body.
	Payload []byte
}

// Handler processes queries and responses for one handler name.
// Implementations must be safe for concurrent use.
type Handler interface {
	// ProcessQuery handles a query. A non-nil response payload is sent
	// back to the querier; nil means no response (e.g. nothing matched
	// and the protocol answers only positively, like discovery).
	ProcessQuery(q Query, from endpoint.Address) ([]byte, error)
	// ProcessResponse handles a response to a query this peer issued.
	ProcessResponse(r Response, from endpoint.Address)
}

// Propagator fans a message out to the group; the rendezvous service
// implements it.
type Propagator interface {
	Propagate(msg *message.Message, dsvc, dparam string, envelope ...message.Field) error
}

// Endpoint is the endpoint capability the resolver needs.
type Endpoint interface {
	endpoint.Sender
	RegisterHandler(svc, param string, h endpoint.Handler) error
	UnregisterHandler(svc, param string)
}

// Service is one peer's resolver instance for one group.
type Service struct {
	ep     Endpoint
	prop   Propagator
	group  string
	nextID atomic.Uint64

	mu       sync.RWMutex
	handlers map[string]Handler
}

// New creates a resolver bound to the group-scoped endpoint service.
// prop may be nil for peers that never propagate (pure point-to-point).
func New(ep Endpoint, prop Propagator, group string) (*Service, error) {
	s := &Service{ep: ep, prop: prop, group: group, handlers: make(map[string]Handler)}
	if err := ep.RegisterHandler(ServiceName, group, s.handle); err != nil {
		return nil, fmt.Errorf("resolver: register endpoint handler: %w", err)
	}
	return s, nil
}

// Close detaches the resolver from the endpoint.
func (s *Service) Close() {
	s.ep.UnregisterHandler(ServiceName, s.group)
}

// RegisterHandler binds a named handler. Registering the same name twice
// is an error (JXTA semantics: one service owns one handler name).
func (s *Service) RegisterHandler(name string, h Handler) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[name]; ok {
		return fmt.Errorf("%w: %q", ErrDupHandler, name)
	}
	s.handlers[name] = h
	return nil
}

// UnregisterHandler removes a named handler.
func (s *Service) UnregisterHandler(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.handlers, name)
}

// SendQuery sends a query directly to the peer at the given address and
// returns the query ID for response correlation.
func (s *Service) SendQuery(to endpoint.Address, handler string, payload []byte) (uint64, error) {
	qid := s.nextID.Add(1)
	msg := s.encodeQuery(handler, qid, payload)
	if err := s.ep.Send(to, ServiceName, s.group, msg); err != nil {
		return 0, fmt.Errorf("resolver: send query: %w", err)
	}
	return qid, nil
}

// PropagateQuery fans a query out through the rendezvous mesh and returns
// the query ID. Responses arrive asynchronously from any peer that can
// answer.
func (s *Service) PropagateQuery(handler string, payload []byte) (uint64, error) {
	if s.prop == nil {
		return 0, ErrNoPropagator
	}
	qid := s.nextID.Add(1)
	msg := s.encodeQuery(handler, qid, payload)
	if err := s.prop.Propagate(msg, ServiceName, s.group); err != nil {
		return 0, fmt.Errorf("resolver: propagate query: %w", err)
	}
	return qid, nil
}

// PropagateResponse fans an unsolicited response out through the
// rendezvous mesh. Discovery's remotePublish uses it to push fresh
// advertisements to peers that never asked (query ID zero by convention).
func (s *Service) PropagateResponse(handler string, queryID uint64, payload []byte) error {
	if s.prop == nil {
		return ErrNoPropagator
	}
	msg := s.encodeResponse(handler, queryID, payload)
	if err := s.prop.Propagate(msg, ServiceName, s.group); err != nil {
		return fmt.Errorf("resolver: propagate response: %w", err)
	}
	return nil
}

func (s *Service) encodeQuery(handler string, qid uint64, payload []byte) *message.Message {
	msg := message.New(s.ep.PeerID())
	msg.AddString(elemNS, elemKind, kindQuery)
	msg.AddString(elemNS, elemHandler, handler)
	msg.AddBytes(elemNS, elemQID, encodeQID(qid))
	msg.AddBytes(elemNS, elemPayload, payload)
	// Responses must reach the querier even when the query travelled
	// through the rendezvous mesh, so the query carries its own return
	// address.
	if addrs := s.ep.LocalAddresses(); len(addrs) > 0 {
		msg.AddString(elemNS, elemSrcAddr, string(addrs[0]))
	}
	return msg
}

func (s *Service) encodeResponse(handler string, qid uint64, payload []byte) *message.Message {
	msg := message.New(s.ep.PeerID())
	msg.AddString(elemNS, elemKind, kindResponse)
	msg.AddString(elemNS, elemHandler, handler)
	msg.AddBytes(elemNS, elemQID, encodeQID(qid))
	msg.AddBytes(elemNS, elemPayload, payload)
	return msg
}

// handle demultiplexes resolver traffic to registered handlers.
func (s *Service) handle(msg *message.Message, from endpoint.Address) {
	name := msg.Text(elemNS, elemHandler)
	s.mu.RLock()
	h, ok := s.handlers[name]
	s.mu.RUnlock()
	if !ok {
		return // no handler: silently dropped, exactly like JXTA
	}
	qid := decodeQID(msg.Bytes(elemNS, elemQID))
	payload := msg.Bytes(elemNS, elemPayload)
	switch msg.Text(elemNS, elemKind) {
	case kindQuery:
		// A propagated query can echo back to its issuer; never
		// self-answer.
		if msg.Src == s.ep.PeerID() {
			return
		}
		// Respond to the querier's advertised address: `from` may be an
		// intermediate rendezvous when the query was propagated.
		respondTo := endpoint.Address(msg.Text(elemNS, elemSrcAddr))
		if respondTo == "" {
			respondTo = from
		}
		resp, err := h.ProcessQuery(Query{Handler: name, ID: qid, Src: msg.Src, Payload: payload}, respondTo)
		if err != nil || resp == nil {
			return
		}
		// Answer in the group the query was addressed to: a wildcard
		// service (group "") answers queries from many groups, and the
		// querier only listens on its own group parameter.
		respParam := s.group
		if _, inParam, derr := endpoint.Destination(msg); derr == nil && inParam != "" {
			respParam = inParam
		}
		out := s.encodeResponse(name, qid, resp)
		_ = s.ep.Send(respondTo, ServiceName, respParam, out)
	case kindResponse:
		h.ProcessResponse(Response{Handler: name, QueryID: qid, Src: msg.Src, Payload: payload}, from)
	}
}

func encodeQID(qid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], qid)
	return b[:]
}

func decodeQID(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// HandlerFunc adapts plain functions to the Handler interface.
type HandlerFunc struct {
	// OnQuery backs ProcessQuery; nil means "never answers".
	OnQuery func(q Query, from endpoint.Address) ([]byte, error)
	// OnResponse backs ProcessResponse; nil ignores responses.
	OnResponse func(r Response, from endpoint.Address)
}

// ProcessQuery implements Handler.
func (f HandlerFunc) ProcessQuery(q Query, from endpoint.Address) ([]byte, error) {
	if f.OnQuery == nil {
		return nil, nil
	}
	return f.OnQuery(q, from)
}

// ProcessResponse implements Handler.
func (f HandlerFunc) ProcessResponse(r Response, from endpoint.Address) {
	if f.OnResponse != nil {
		f.OnResponse(r, from)
	}
}

var _ Handler = HandlerFunc{}
