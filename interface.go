package tps

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// CallBack handles events delivered to a subscription — the paper's
// TPSCallBackInterface. A returned error is routed to the registered
// ExceptionHandler.
type CallBack[T any] interface {
	Handle(event T) error
}

// CallBackFunc adapts a plain function to CallBack.
type CallBackFunc[T any] func(event T) error

// Handle implements CallBack.
func (f CallBackFunc[T]) Handle(event T) error { return f(event) }

// ExceptionHandler consumes the errors raised while handling received
// events — the paper's TPSExceptionHandler.
type ExceptionHandler interface {
	HandleException(err error)
}

// ExceptionHandlerFunc adapts a plain function to ExceptionHandler.
type ExceptionHandlerFunc func(err error)

// HandleException implements ExceptionHandler.
func (f ExceptionHandlerFunc) HandleException(err error) { f(err) }

// Criteria is a content filter evaluated on each received event before
// the callbacks run: TPS encapsulation means the filter uses the event
// type's own fields and methods. A nil Criteria accepts everything.
type Criteria[T any] func(event T) bool

// Errors.
var (
	// ErrNotSubscribed is returned by Unsubscribe when no matching
	// (callback, handler) pair is registered.
	ErrNotSubscribed = errors.New("no matching subscription")
	// ErrMismatchedArrays is returned by SubscribeMany when the callback
	// and handler slices differ in length.
	ErrMismatchedArrays = errors.New("callback and handler arrays differ in length")
)

// Engine is the typed TPS engine for one event type hierarchy rooted at
// T — the paper's TPSEngine<Type>. Create one engine per unrelated type
// of interest (§4.2).
//
// An engine is a view of its platform's one runtime: it holds the type
// and the subscriptions of its interfaces, and nothing runs on its own
// behalf. Engines whose hierarchies overlap deliver each event of a
// shared type once each, through the one attachment to its group.
type Engine[T any] struct {
	platform *Platform
	node     *typereg.Node

	// mu serialises Close with the subscriptions its interfaces add, so
	// none is left behind; closed is read alone where nothing is added.
	mu     sync.Mutex
	closed atomic.Bool
	subs   map[*engine.Subscription]struct{}
}

// NewEngine creates the engine for type T, registering T as a hierarchy
// root if it is not registered yet. Subtypes of T must have been added
// with RegisterSub before events of those types can flow.
func NewEngine[T any](p *Platform) (*Engine[T], error) {
	if p.peer.Closed() {
		return nil, psErr("engine", engine.ErrClosed)
	}
	reg := p.eng.Registry()
	t := typeOf[T]()
	node, ok := reg.NodeByType(t)
	if !ok {
		var err error
		node, err = reg.Register(t, nil)
		if err != nil {
			return nil, psErr("engine", err)
		}
	}
	return &Engine[T]{platform: p, node: node, subs: make(map[*engine.Subscription]struct{})}, nil
}

// core returns the platform's engine, or ErrClosed once this one is.
func (e *Engine[T]) core() (*engine.Engine, error) {
	if e.closed.Load() {
		return nil, engine.ErrClosed
	}
	return e.platform.eng, nil
}

// NewInterface returns the TPS interface for the engine's type — the
// paper's TPSEngine.newInterface. criteria may be nil.
func (e *Engine[T]) NewInterface(criteria Criteria[T]) (*Interface[T], error) {
	return &Interface[T]{eng: e, criteria: criteria}, nil
}

// Node exposes the engine's root type node (used by benchmarks to probe
// readiness).
func (e *Engine[T]) Node() *typereg.Node { return e.node }

// Announce joins the type's group without publishing an event — the
// initialization a publisher performs at startup (§4.1), without the
// paper's search: the group is named by the type. Publish calls it
// implicitly.
func (e *Engine[T]) Announce() error {
	core, err := e.core()
	if err == nil {
		err = core.EnsureType(e.node)
	}
	return psErr("announce", err)
}

// AwaitReady joins T's group, as Announce does, and blocks until at
// least n groups carrying T (or subtypes) are attached and connected, or
// the timeout elapses. Decoupled applications do not need it; benchmarks
// and tests do.
func (e *Engine[T]) AwaitReady(n int, timeout time.Duration) bool {
	core, err := e.core()
	if err != nil || core.EnsureType(e.node) != nil {
		return false
	}
	return core.AwaitReady(e.node, n, timeout)
}

// Close shuts the engine down: the subscriptions of its interfaces are
// removed, so they stop delivering, and they refuse Publish and
// Subscribe, as the engine refuses Announce, with an error. The type's
// group stays joined until Platform.Close: another engine of the
// platform may be using it.
func (e *Engine[T]) Close() {
	e.mu.Lock()
	e.closed.Store(true)
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for sub := range subs {
		e.platform.eng.Unsubscribe(sub)
	}
}

// subscribe adds a core subscription to the engine's type for one of
// its interfaces.
func (e *Engine[T]) subscribe(deliver engine.Delivery, onError engine.ErrorHandler) (*engine.Subscription, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	core, err := e.core()
	if err != nil {
		return nil, err
	}
	sub, err := core.Subscribe(e.node, deliver, onError)
	if err != nil {
		return nil, err
	}
	e.subs[sub] = struct{}{}
	return sub, nil
}

// unsubscribe removes a core subscription subscribe added.
func (e *Engine[T]) unsubscribe(sub *engine.Subscription) {
	e.mu.Lock()
	delete(e.subs, sub)
	e.mu.Unlock()
	e.platform.eng.Unsubscribe(sub)
}

// Interface is the paper's TPSInterface<Type>: the seven operations of
// Figure 8, typed by Go generics.
type Interface[T any] struct {
	eng      *Engine[T]
	criteria Criteria[T]

	mu sync.Mutex
	// entries is replaced, never written in place: Subscribe and
	// Unsubscribe install a new slice, so deliver and onError read the one
	// they found under the lock without copying it per event.
	entries  []subEntry[T]
	coreSub  *engine.Subscription
	received []T
	sent     []T
}

type subEntry[T any] struct {
	cb  CallBack[T]
	exh ExceptionHandler
}

// Publish sends an instance of the type as an event to the subscribers —
// method (1) of Figure 8. The event's dynamic type may be any registered
// subtype of T.
//
// Events are immutable once published (§4.2): the publisher must not
// mutate memory reachable through the event (slices, maps, pointers)
// after Publish returns. Local subscribers on the same peer are handed
// the publisher's value itself rather than a serialisation round-trip
// copy, so post-publish mutation is observable (or racy) there, while
// remote subscribers always decode their own copy.
func (i *Interface[T]) Publish(event T) error {
	core, err := i.eng.core()
	if err == nil {
		err = core.Publish(event)
	}
	if err != nil {
		return psErr("publish", err)
	}
	i.mu.Lock()
	i.sent = append(i.sent, event)
	i.mu.Unlock()
	return nil
}

// Subscribe registers a callback object plus the exception handler for
// errors raised while handling events — method (2). exh may be nil.
//
// Delivered events follow the immutability contract of Publish:
// callbacks must treat the event as read-only. An event published on
// this same peer may share memory with the publisher's value and, when
// several subscriptions match, with the other callbacks' deliveries.
func (i *Interface[T]) Subscribe(cb CallBack[T], exh ExceptionHandler) error {
	if cb == nil {
		return psErr("subscribe", errors.New("nil callback"))
	}
	if _, err := i.eng.core(); err != nil {
		return psErr("subscribe", err)
	}
	i.mu.Lock()
	i.entries = append(slices.Clip(i.entries), subEntry[T]{cb: cb, exh: exh})
	needCore := i.coreSub == nil
	i.mu.Unlock()
	if !needCore {
		return nil
	}
	sub, err := i.eng.subscribe(i.deliver, i.onError)
	if err != nil {
		i.mu.Lock()
		i.entries = i.entries[:len(i.entries)-1]
		i.mu.Unlock()
		return psErr("subscribe", err)
	}
	i.mu.Lock()
	if len(i.entries) == 0 || i.coreSub != nil {
		// A concurrent Unsubscribe removed the last pair while the core
		// subscription was being set up (the interface must go quiet), or
		// a concurrent Subscribe already installed one. Either way this
		// subscription must not be kept, or it would deliver forever with
		// nobody listening.
		i.mu.Unlock()
		i.eng.unsubscribe(sub)
		return nil
	}
	i.coreSub = sub
	i.mu.Unlock()
	return nil
}

// SubscribeMany registers several callback objects at once — method (3),
// e.g. one callback printing to a console and another updating a GUI.
func (i *Interface[T]) SubscribeMany(cbs []CallBack[T], exhs []ExceptionHandler) error {
	if len(cbs) != len(exhs) {
		return psErr("subscribe", ErrMismatchedArrays)
	}
	for k, cb := range cbs {
		if err := i.Subscribe(cb, exhs[k]); err != nil {
			return err
		}
	}
	return nil
}

// Unsubscribe removes one previously registered (callback, handler)
// pair; only that callback stops receiving — method (4). Removing the
// last pair tears down the core subscription, exactly like
// UnsubscribeAll: otherwise the engine would keep decoding and buffering
// events for an interface nobody listens on.
func (i *Interface[T]) Unsubscribe(cb CallBack[T], exh ExceptionHandler) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	for k, e := range i.entries {
		if sameHandler(e.cb, cb) && sameHandler(e.exh, exh) {
			i.entries = slices.Concat(i.entries[:k], i.entries[k+1:])
			if len(i.entries) == 0 && i.coreSub != nil {
				i.eng.unsubscribe(i.coreSub)
				i.coreSub = nil
			}
			return nil
		}
	}
	return psErr("unsubscribe", ErrNotSubscribed)
}

// UnsubscribeAll removes every callback registered so far; after this
// call no event is received anymore — method (5).
func (i *Interface[T]) UnsubscribeAll() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.entries = nil
	if i.coreSub != nil {
		i.eng.unsubscribe(i.coreSub)
		i.coreSub = nil
	}
	return nil
}

// ObjectsReceived returns the events received so far — method (6).
func (i *Interface[T]) ObjectsReceived() []T {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]T(nil), i.received...)
}

// ObjectsSent returns the events published so far — method (7).
func (i *Interface[T]) ObjectsSent() []T {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]T(nil), i.sent...)
}

// deliver is the core-engine delivery callback: it narrows the event to
// T, applies the criteria and fans out to the registered callbacks.
func (i *Interface[T]) deliver(event any, _ jid.ID) error {
	v, ok := event.(T)
	if !ok {
		// A nominal subtype that is not Go-assignable to T (struct
		// hierarchies): the subject matched but the Go type cannot be
		// narrowed. Skip: Go's analogue of subtype delivery is interface
		// satisfaction.
		return nil
	}
	if i.criteria != nil && !i.criteria(v) {
		return nil
	}
	i.mu.Lock()
	i.received = append(i.received, v)
	entries := i.entries
	i.mu.Unlock()
	for _, e := range entries {
		if err := e.cb.Handle(v); err != nil && e.exh != nil {
			e.exh.HandleException(err)
		}
	}
	return nil
}

// onError fans engine-level errors (decode failures, callback panics) to
// every registered exception handler.
func (i *Interface[T]) onError(err error) {
	i.mu.Lock()
	entries := i.entries
	i.mu.Unlock()
	for _, e := range entries {
		if e.exh != nil {
			e.exh.HandleException(err)
		}
	}
}

// sameHandler compares callbacks/handlers by identity: pointer equality
// for pointers and funcs, value equality for comparable values.
func sameHandler(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() != vb.Kind() {
		return false
	}
	switch va.Kind() {
	case reflect.Func, reflect.Pointer, reflect.Chan, reflect.Map, reflect.Slice:
		return va.Pointer() == vb.Pointer()
	default:
		if va.Comparable() && vb.Comparable() {
			return a == b
		}
		return false
	}
}

// String renders a short description, useful in logs.
func (i *Interface[T]) String() string {
	return fmt.Sprintf("tps.Interface[%s]", i.eng.node.Path())
}
