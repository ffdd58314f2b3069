// Package srtps is the ski-rental application written over the TPS API —
// the paper's §4.3 exhibit (SR-TPS).
//
// Note how little is here: the four phases are one type registration,
// two lines of initialization, a subscribe call with a callback and an
// exception handler, and a publish call. Everything else — naming the
// type's peer group and joining it, opening wire pipes, suppressing
// duplicate messages — lives below the TPS abstraction. Compare with
// package srjxta, which rebuilds all of it by hand, and has to find its
// groups by advertisement and manage several for one type besides.
package srtps

import (
	"io"
	"sync"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/srapp"
)

// App is one peer's ski-rental application instance over TPS.
type App struct {
	engine *tps.Engine[srapp.SkiRental]
	intf   *tps.Interface[srapp.SkiRental]

	mu   sync.Mutex
	errs []error
}

// New builds the application on an existing TPS platform, running the
// paper's type-definition and initialization phases.
func New(platform *tps.Platform) (*App, error) {
	// Type definition phase: SkiRental joins the common type model.
	// Several application instances may share one platform, so an
	// already-registered type is fine.
	if err := tps.Register[srapp.SkiRental](platform); err != nil {
		// Duplicate registration only: any other error would also fail
		// engine creation below.
		_ = err
	}
	// Initialization phase: the engine and its interface.
	engine, err := tps.NewEngine[srapp.SkiRental](platform)
	if err != nil {
		return nil, err
	}
	intf, err := engine.NewInterface(nil)
	if err != nil {
		engine.Close()
		return nil, err
	}
	return &App{engine: engine, intf: intf}, nil
}

// SubscribeFunc runs the subscription phase with a plain function
// callback. Handling errors land in the app's error log.
func (a *App) SubscribeFunc(handle func(srapp.SkiRental)) error {
	cb := tps.CallBackFunc[srapp.SkiRental](func(r srapp.SkiRental) error {
		handle(r)
		return nil
	})
	return a.intf.Subscribe(cb, tps.ExceptionHandlerFunc(a.recordError))
}

// SubscribeConsole prints every offer to w — the paper's MyCBInterface.
func (a *App) SubscribeConsole(w io.Writer) error {
	return a.SubscribeFunc(func(r srapp.SkiRental) {
		_, _ = io.WriteString(w, "Skis that could be rented: "+r.String()+"\n")
	})
}

// Publish runs the publication phase for one offer.
func (a *App) Publish(offer srapp.SkiRental) error {
	return a.intf.Publish(offer)
}

// Received returns the offers received so far (the TPSInterface's
// objectsReceived).
func (a *App) Received() []srapp.SkiRental { return a.intf.ObjectsReceived() }

// Sent returns the offers published so far (objectsSent).
func (a *App) Sent() []srapp.SkiRental { return a.intf.ObjectsSent() }

// Errors returns the exceptions raised while handling events.
func (a *App) Errors() []error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]error(nil), a.errs...)
}

// AwaitReady blocks until the type's event group is attached and
// connected (benchmarks use it; the decoupled application does not).
func (a *App) AwaitReady(n int, timeout time.Duration) bool {
	return a.engine.AwaitReady(n, timeout)
}

// Close shuts the application down.
func (a *App) Close() {
	_ = a.intf.UnsubscribeAll()
	a.engine.Close()
}

func (a *App) recordError(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.errs = append(a.errs, err)
}
