package engine

import (
	"fmt"
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
	set     *subscriptionSet
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
// Subscribing also runs EnsureType on the root so an advertisement for
// it exists — the paper's subscriber performs the same initialization as
// the publisher (§4.1).
func (e *Engine) Subscribe(node *typereg.Node, deliver Delivery, onError ErrorHandler) (*Subscription, error) {
	if deliver == nil {
		return nil, ErrNilDelivery
	}
	if node == nil {
		return nil, ErrNotRegistered
	}
	// Track every registered type in the closure so the finder also
	// hunts for subtype advertisements published elsewhere.
	for _, n := range e.reg.Closure(node) {
		e.trackPath(n)
	}
	if err := e.EnsureType(node); err != nil {
		return nil, err
	}
	sub := &Subscription{node: node, deliver: deliver, onError: onError, set: e.subs}
	e.subs.add(sub)
	// Replay requests wait for a subscriber to replay to (see
	// requestReplays); what the attachments owe can go out now.
	e.kickReplay()
	return sub, nil
}

// Unsubscribe removes one subscription. Removing the last subscription
// stops deliveries entirely (attachments stay warm for resubscription).
func (e *Engine) Unsubscribe(sub *Subscription) {
	if sub != nil && sub.set != nil {
		sub.set.remove(sub)
	}
}

// UnsubscribeAll removes every subscription registered on the engine —
// the paper's unsubscribe() variant (5): "after this call, no event is
// received anymore".
func (e *Engine) UnsubscribeAll() {
	e.subs.clear()
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

func (s *subscriptionSet) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = make(map[*Subscription]struct{})
}

// dispatchRoom is how many subscriptions an event can go to before
// selecting them allocates: the targets are picked under the lock into an
// array on the dispatcher's stack, and called outside it.
const dispatchRoom = 8

// dispatch delivers an event to every subscription whose root type the
// event's dynamic type is assignable to (Figure 7 semantics). Callback
// panics are converted to exception-handler calls so one bad subscriber
// cannot kill the reader.
func (s *subscriptionSet) dispatch(reg *typereg.Registry, node *typereg.Node, event any, from jid.ID) {
	dyn := typereg.TypeOf(event)
	var room [dispatchRoom]*Subscription
	targets := room[:0]
	s.mu.RLock()
	for sub := range s.subs {
		if reg.Assignable(sub.node, dyn) {
			targets = append(targets, sub)
		}
	}
	s.mu.RUnlock()
	for _, sub := range targets {
		s.deliverOne(sub, event, from)
	}
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

// dispatchError fans a decode error to every subscription's exception
// handler.
func (s *subscriptionSet) dispatchError(err error) {
	var room [dispatchRoom]*Subscription
	targets := room[:0]
	s.mu.RLock()
	for sub := range s.subs {
		if sub.onError != nil {
			targets = append(targets, sub)
		}
	}
	s.mu.RUnlock()
	for _, sub := range targets {
		sub.onError(err)
	}
}

// AwaitReady blocks until at least n attachments covering the node's
// subtree are live AND their groups hold a rendezvous lease (or the peer
// is unseeded), or the timeout elapses. Publishers use it before
// measuring throughput. It starts one finder round; lease grants and the
// FindInterval ticker start the rounds after it. It waits on e.cond,
// which an attach, a new lease of an attachment's group and the deadline
// broadcast.
func (e *Engine) AwaitReady(node *typereg.Node, n int, timeout time.Duration) bool {
	e.trackPath(node)
	e.kickFinder()
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
	for path, m := range e.attachments {
		if typereg.CoversPath(node.Path(), path) {
			for _, a := range m {
				if e.ready(a) {
					count++
				}
			}
		}
	}
	return count
}
