package rig

import (
	"sync"
	"testing"
	"time"
)

// Probe is the subscriber scenarios watch: it records every event and
// every exception delivered to it, in order. Subscribe it as both the
// callback and the exception handler of an interface.
type Probe[T comparable] struct {
	mu     sync.Mutex
	events []T
	errs   []error
}

// Handle implements tps.CallBack.
func (p *Probe[T]) Handle(ev T) error {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
	return nil
}

// HandleException implements tps.ExceptionHandler.
func (p *Probe[T]) HandleException(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// Events returns what was delivered so far, in arrival order.
func (p *Probe[T]) Events() []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]T(nil), p.events...)
}

// Errors returns the exceptions raised so far.
func (p *Probe[T]) Errors() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]error(nil), p.errs...)
}

// Count returns how many events were delivered so far.
func (p *Probe[T]) Count() int { return len(p.Events()) }

// Await waits for at least n deliveries, as long as Wait would.
func (p *Probe[T]) Await(t testing.TB, n int) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); p.Count() < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d events delivered", p.Count(), n)
		}
	}
}

// Duplicate returns an event that was delivered more than once, if any.
func (p *Probe[T]) Duplicate() (ev T, found bool) {
	seen := map[T]bool{}
	for _, e := range p.Events() {
		if seen[e] {
			return e, true
		}
		seen[e] = true
	}
	return ev, false
}

// ExactlyOnce fails the test unless n distinct events were delivered,
// each once.
func (p *Probe[T]) ExactlyOnce(t testing.TB, n int) {
	t.Helper()
	if ev, dup := p.Duplicate(); dup {
		t.Fatalf("event %v delivered more than once", ev)
	}
	if got := p.Count(); got != n {
		t.Fatalf("%d distinct events delivered, want %d", got, n)
	}
}
