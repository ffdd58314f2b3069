package engine

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// subscriptions.go is the Interface Repository block (the paper's
// TPSSubscriberManager): it stores callback objects together with their
// exception handlers and starts/stops subscriptions.

// Delivery consumes a decoded event. A non-nil return value is routed to
// the subscription's error handler — the paper's TPSExceptionHandler,
// which handles "the exceptions that may be raised while handling the
// received events".
type Delivery func(event any, from jid.ID) error

// ErrorHandler consumes delivery and decode errors. It must not block.
type ErrorHandler func(err error)

// Subscription is one registered (callback, exception handler) pair.
type Subscription struct {
	node    *typereg.Node
	deliver Delivery
	onError ErrorHandler
}

// Node returns the subscription's root type node.
func (s *Subscription) Node() *typereg.Node { return s.node }

// subscriptionSet is the concurrency-safe repository.
type subscriptionSet struct {
	mu   sync.RWMutex
	subs map[*Subscription]struct{}
}

func newSubscriptionSet() *subscriptionSet {
	return &subscriptionSet{subs: make(map[*Subscription]struct{})}
}

// Subscribe registers a delivery callback rooted at the given type node:
// events of that type and of every subtype (nominal or by interface
// satisfaction) are delivered. onError may be nil.
//
// Subscribing joins the group of every type the root's closure holds,
// and of every type registered in it later — the paper's subscriber
// performs the same initialization as the publisher (§4.1).
func (e *Engine) Subscribe(node *typereg.Node, deliver Delivery, onError ErrorHandler) (*Subscription, error) {
	if deliver == nil {
		return nil, ErrNilDelivery
	}
	if node == nil {
		return nil, ErrNotRegistered
	}
	// The root first, then its closure: a type registered in between is
	// attached by onRegister, one registered before is in the closure.
	e.mu.Lock()
	e.roots[node.Path()] = node
	e.mu.Unlock()
	for _, n := range e.reg.Closure(node) {
		if err := e.EnsureType(n); err != nil {
			return nil, err
		}
	}
	sub := &Subscription{node: node, deliver: deliver, onError: onError}
	e.subs.add(sub)
	// Replay requests wait for a subscriber to replay to (see
	// requestReplays); what the attachments owe can go out now.
	e.kickReplay()
	return sub, nil
}

// Unsubscribe removes one subscription. Removing the last subscription
// stops deliveries entirely (attachments stay warm for resubscription).
func (e *Engine) Unsubscribe(sub *Subscription) {
	e.subs.remove(sub)
}

// SubscriptionCount returns the number of live subscriptions.
func (e *Engine) SubscriptionCount() int {
	e.subs.mu.RLock()
	defer e.subs.mu.RUnlock()
	return len(e.subs.subs)
}

func (s *subscriptionSet) add(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[sub] = struct{}{}
}

func (s *subscriptionSet) remove(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, sub)
}

// dispatchRoom is how many subscriptions an event can go to before
// selecting them allocates: the targets are picked under the lock into an
// array on the dispatcher's stack, and called outside it.
const dispatchRoom = 8

// dispatch delivers an event to every subscription whose root type the
// event's dynamic type is assignable to (Figure 7 semantics). Callback
// panics are converted to exception-handler calls so one bad subscriber
// cannot kill the reader.
func (s *subscriptionSet) dispatch(reg *typereg.Registry, event any, from jid.ID) {
	var room [dispatchRoom]*Subscription
	for _, sub := range s.covering(reg, typereg.TypeOf(event), room[:0]) {
		s.deliverOne(sub, event, from)
	}
}

// covering appends to targets the subscriptions an event of type dyn is
// delivered to: those whose root type dyn is assignable to.
func (s *subscriptionSet) covering(reg *typereg.Registry, dyn reflect.Type, targets []*Subscription) []*Subscription {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for sub := range s.subs {
		if reg.Assignable(sub.node, dyn) {
			targets = append(targets, sub)
		}
	}
	return targets
}

func (s *subscriptionSet) deliverOne(sub *Subscription, event any, from jid.ID) {
	defer func() {
		if r := recover(); r != nil && sub.onError != nil {
			sub.onError(fmt.Errorf("tps: callback panic: %v", r))
		}
	}()
	if err := sub.deliver(event, from); err != nil && sub.onError != nil {
		sub.onError(err)
	}
}

// dispatchError fans an error about the group of the node's type — a
// decode failure, a replay gap, a failed attach — to the exception
// handlers of the subscriptions its events are delivered to.
func (s *subscriptionSet) dispatchError(reg *typereg.Registry, node *typereg.Node, err error) {
	var room [dispatchRoom]*Subscription
	for _, sub := range s.covering(reg, node.Type(), room[:0]) {
		if sub.onError != nil {
			sub.onError(err)
		}
	}
}

// AwaitReady blocks until at least n attachments covering the node's
// subtree are live AND their groups hold a rendezvous lease (or the peer
// is unseeded), or the timeout elapses. Publishers use it before
// measuring throughput. It only waits: on e.cond, which an attach, a new
// lease of an attachment's group and the deadline broadcast.
func (e *Engine) AwaitReady(node *typereg.Node, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	defer time.AfterFunc(timeout, e.broadcast).Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.readyLocked(node) < n {
		if e.closed || !time.Now().Before(deadline) {
			return false
		}
		e.cond.Wait()
	}
	return true
}

func (e *Engine) readyCount(node *typereg.Node) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.readyLocked(node)
}

func (e *Engine) readyLocked(node *typereg.Node) int {
	count := 0
	for path, a := range e.attachments {
		if typereg.CoversPath(node.Path(), path) && e.ready(a) {
			count++
		}
	}
	return count
}
