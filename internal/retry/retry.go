// Package retry provides capped exponential backoff with jitter for
// redial and reconnect loops.
//
// The transports and the rendezvous protocol treat peer failure as the
// normal case: a dead peer must not be hammered on every tick, and a
// fleet of peers reconnecting after a partition heals must not all redial
// in the same instant. Policy captures both concerns — exponential growth
// bounds the retry rate, the cap bounds how long a recovered peer waits,
// and jitter desynchronises the herd.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Policy describes a capped exponential backoff curve. The zero value is
// usable: zero fields take the Default values.
type Policy struct {
	// Initial is the delay after the first failure.
	Initial time.Duration
	// Max caps the delay regardless of how many failures accumulated.
	Max time.Duration
	// Multiplier is the growth factor between consecutive failures.
	// Values below 1 are treated as the default.
	Multiplier float64
	// Jitter is the fraction of the delay randomly subtracted, in [0,1].
	// Subtracting (rather than adding) keeps Backoff ≤ Max while still
	// desynchronising concurrent retriers. Negative disables jitter;
	// zero means the default.
	Jitter float64
}

// Default values substituted for zero Policy fields.
var Default = Policy{
	Initial:    50 * time.Millisecond,
	Max:        5 * time.Second,
	Multiplier: 2,
	Jitter:     0.2,
}

func (p Policy) norm() Policy {
	if p.Initial <= 0 {
		p.Initial = Default.Initial
	}
	if p.Max <= 0 {
		p.Max = Default.Max
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	if p.Multiplier < 1 {
		p.Multiplier = Default.Multiplier
	}
	if p.Jitter == 0 {
		p.Jitter = Default.Jitter
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff returns the delay to wait after the given consecutive failure
// count (1 for the first failure). Non-positive counts return 0. The
// result is in ((1-Jitter)·d, d] where d grows exponentially from
// Initial and is capped at Max.
func (p Policy) Backoff(failures int) time.Duration {
	return p.BackoffAt(failures, rand.Float64())
}

// BackoffAt is Backoff with the jitter drawn by the caller: u, in
// [0, 1), takes u·Jitter of the delay off.
func (p Policy) BackoffAt(failures int, u float64) time.Duration {
	if failures <= 0 {
		return 0
	}
	p = p.norm()
	d := float64(p.Initial)
	for i := 1; i < failures; i++ {
		d *= p.Multiplier
		if d >= float64(p.Max) {
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		d -= d * p.Jitter * u
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Wait blocks for the backoff delay of the given failure count, or until
// the context is done, whichever comes first. It returns the context's
// error if interrupted, nil otherwise.
func (p Policy) Wait(ctx context.Context, failures int) error {
	d := p.Backoff(failures)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// permanentError marks an error as not worth retrying. It unwraps to
// the underlying error so callers' errors.Is/As checks see through the
// marker.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it immediately:
// a rejected credential or a malformed request will not succeed on the
// tenth attempt either. A nil err returns nil. errors.Is/As against the
// wrapped error still work on Do's return value.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do calls fn up to attempts times, waiting p.Backoff between failures.
// It returns nil on the first success, the context error if cancelled
// mid-wait, and otherwise the last failure's error. An error wrapped
// with Permanent short-circuits the loop: it is returned at once,
// remaining attempts notwithstanding. attempts ≤ 0 runs fn once.
func Do(ctx context.Context, p Policy, attempts int, fn func() error) error {
	if attempts <= 0 {
		attempts = 1
	}
	var err error
	for i := 1; i <= attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if IsPermanent(err) || i == attempts {
			break
		}
		if werr := p.Wait(ctx, i); werr != nil {
			return werr
		}
	}
	return err
}
