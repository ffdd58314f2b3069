package rig

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/obs"
)

// link is the transport a node's platform is given: the fabric's own
// with the cluster's faults applied on the way out (crash, partition)
// and on the way in (crash, loss, throttle).
type link struct {
	endpoint.Transport // memnet or tcpnet
	c                  *Cluster
	dead               atomic.Bool // killed: mute and deaf from now on

	delay atomic.Int64 // Throttle, as a time.Duration

	mu   sync.Mutex // Lossy
	loss float64
	rng  *rand.Rand
}

// Send implements endpoint.Transport.
func (l *link) Send(to endpoint.Address, frame []byte) error {
	if l.dead.Load() {
		return nil // a crashed process learns nothing about its last words
	}
	if l.c.cut(l.LocalAddress(), to) {
		return fmt.Errorf("rig: %s to %s: partitioned", l.LocalAddress(), to)
	}
	l.c.moved.Add(1)
	return l.Transport.Send(to, frame)
}

// SetReceiver implements endpoint.Transport.
func (l *link) SetReceiver(recv func(frame []byte)) {
	l.Transport.SetReceiver(func(frame []byte) {
		l.c.moved.Add(1)
		l.mu.Lock()
		lost := l.rng != nil && l.rng.Float64() < l.loss
		l.mu.Unlock()
		if lost || l.dead.Load() {
			return
		}
		// Slept on the fabric's delivery goroutine: the frames behind this
		// one wait, as they would for a receiver that is busy.
		time.Sleep(time.Duration(l.delay.Load()))
		recv(frame)
	})
}

// Snapshot implements obs.Provider by handing on what the transport
// underneath counts, so a node's Stats hold tcpnet's counters as they
// would without the link.
func (l *link) Snapshot() obs.Snapshot {
	if counted, ok := l.Transport.(obs.Provider); ok {
		return counted.Snapshot()
	}
	return obs.Snapshot{Name: "memnet"}
}
