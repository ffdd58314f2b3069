package tps_test

// durability_test.go exercises the durable event log end-to-end at the
// TPS API surface: a rendezvous daemon started with LogDir retains
// published events, and a subscriber that joins only after publication
// catches up automatically — the engine's replay loop presents its
// cursor, the daemon replays the retained suffix, and the dedupe cache
// keeps delivery exactly-once observable. No test code drives the replay
// protocol by hand; this is what an application gets for free.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/rig"
)

func TestLateJoinerCatchesUpEndToEnd(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir()})
	edge := func(name string) *tps.Platform {
		return c.Start(tps.Config{Name: name, Seeds: []string{"rdv"}}).Platform
	}

	// Phase 1: publish with nobody subscribed anywhere.
	pubP := edge("pub")
	if err := tps.Register[SkiRental](pubP); err != nil {
		t.Fatal(err)
	}
	pubEng, err := tps.NewEngine[SkiRental](pubP)
	if err != nil {
		t.Fatal(err)
	}
	pubIntf, err := pubEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Durability starts at the rendezvous: an event is only loggable once
	// it reaches the mesh, so join the type's group and wait for its
	// lease before publishing anything that must survive.
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	const early = 10
	for i := 0; i < early; i++ {
		ev := SkiRental{Shop: fmt.Sprintf("shop-%d", i), Brand: "Salomon", Price: float64(i)}
		if err := pubIntf.Publish(ev); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	// The rendezvous' log is the durability boundary: wait until it
	// retains every event before letting the late joiner appear. It logs
	// one topic, the SkiRental group's — the net group is not logged.
	deadline := time.Now().Add(10 * time.Second)
	for {
		topics := rdv.Inspect().EventLog
		if len(topics) == 1 && topics[0].LastSeq >= early {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous log never retained %d events in one topic: %+v", early, topics)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 2: the subscriber joins only now. Catch-up must be fully
	// automatic — subscribe and wait, nothing else.
	subP := edge("sub")
	if err := tps.Register[SkiRental](subP); err != nil {
		t.Fatal(err)
	}
	subEng, err := tps.NewEngine[SkiRental](subP)
	if err != nil {
		t.Fatal(err)
	}
	subIntf, err := subEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &rig.Probe[SkiRental]{}
	if err := subIntf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	g.Await(t, early)

	// Phase 3: live publishing continues; replayed history and live
	// traffic must compose into exactly-once per event.
	const late = 5
	for i := 0; i < late; i++ {
		ev := SkiRental{Shop: fmt.Sprintf("shop-%d", early+i), Brand: "Salomon"}
		if err := pubIntf.Publish(ev); err != nil {
			t.Fatalf("late publish %d: %v", i, err)
		}
	}
	g.Await(t, early+late)
	time.Sleep(300 * time.Millisecond) // let any stray duplicate surface
	counts := map[string]int{}
	for _, ev := range g.Events() {
		counts[ev.Shop]++
	}
	if len(counts) != early+late {
		t.Fatalf("distinct events delivered: %d, want %d", len(counts), early+late)
	}
	for shop, n := range counts {
		if n != 1 {
			t.Fatalf("event %s delivered %d times, want exactly once", shop, n)
		}
	}

	// The control plane must reflect what happened: the daemon's log
	// retains the full range and served a replay; the subscriber's
	// cursor points at the retained tail.
	if served := rdv.Stats().Counter("rendezvous", "replay_served"); served < early {
		t.Fatalf("daemon served %d replayed events, want >= %d", served, early)
	}
	cursors := subP.Inspect().Cursors
	if len(cursors) == 0 {
		t.Fatal("subscriber inspection reports no replay cursors")
	}
	// The subscriber's cursor names its group, which is the daemon's log
	// topic: the two views must agree on the retained range.
	var foundTopic bool
	for _, e := range rdv.Inspect().EventLog {
		if e.Topic == cursors[0].Group {
			foundTopic = true
			if e.LastSeq < early {
				t.Fatalf("daemon retains %s only to %d, want >= %d", e.Topic, e.LastSeq, early)
			}
		}
	}
	if !foundTopic {
		t.Fatalf("daemon log has no topic for group %s: %+v", cursors[0].Group, rdv.Inspect().EventLog)
	}
	if cursors[0].Seq < early {
		t.Fatalf("subscriber cursor at %d, want >= %d", cursors[0].Seq, early)
	}
}

// TestDeepReplayOverTCPIsNotShed has late joiners replay more retained
// events than tcpnet's per-host queue holds (1024 frames, oldest shed
// first). Pushed at the joiner faster than it takes them, the replay
// fills that queue, its head is shed on the rendezvous' own side of the
// wire and the joiner never sees it. Pulled a window at a time, at most
// a window and a half is in flight, however slowly the joiner takes it:
// a joiner whose handler is slower than the replay's old pace still gets
// every event once, and the rendezvous sheds nothing.
func TestDeepReplayOverTCPIsNotShed(t *testing.T) {
	const depth = 3000 // about three queues' worth
	// 2 kB events: more than a loopback connection's socket buffers
	// hold of a replay deeper than the queue.
	pad := strings.Repeat("x", 2000)
	c := rig.New(t, rig.TCP)
	rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir()})
	pubEng, pubIntf := rig.Engine[SkiRental](t, c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}}))
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	// The event topic is the one that retains depth records. Publish in
	// batches the publisher's own queue holds, and let the log catch up
	// with each, so that nothing is shed on the way in.
	for sent := 0; sent < depth; {
		for end := sent + 500; sent < end; sent++ {
			if err := pubIntf.Publish(SkiRental{Shop: fmt.Sprintf("shop-%d", sent), Brand: pad}); err != nil {
				t.Fatalf("publish %d: %v", sent, err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for retained(rdv) < uint64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("rendezvous log retains %d of %d events", retained(rdv), sent)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for _, slow := range []time.Duration{0, 500 * time.Microsecond} {
		_, subIntf := rig.Engine[SkiRental](t, c.Start(tps.Config{Name: fmt.Sprint("sub-", slow), Seeds: []string{"rdv"}}))
		g := &rig.Probe[SkiRental]{}
		handle := func(ev SkiRental) error {
			time.Sleep(slow) // the old pace sent one every 31 µs
			return g.Handle(ev)
		}
		if err := subIntf.Subscribe(tps.CallBackFunc[SkiRental](handle), nil); err != nil {
			t.Fatal(err)
		}
		g.Await(t, depth)
		g.ExactlyOnce(t, depth)
		if shed := rdv.Stats().Counter("tcpnet", "dropped"); shed != 0 {
			t.Fatalf("rendezvous shed %d frames replaying to a subscriber taking one event per %v", shed, slow)
		}
	}
}

// TestReplayGapReachesTheHandler keeps a subscriber away while
// retention deletes what follows its cursor. On its next lease the loss
// reaches its exception handler as a *tps.ReplayGapError, which an
// application that imports nothing internal can recognise.
func TestReplayGapReachesTheHandler(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	// Tiny segments and a low cap force retention to drop the head.
	rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir(),
		LogRetention: tps.LogRetention{SegmentBytes: 512, MaxBytes: 1536}})
	pubEng, pub := rig.Engine[SkiRental](t, c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}}))
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	_, sub := rig.Engine[SkiRental](t, c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}}))
	var mu sync.Mutex
	var gaps []*tps.ReplayGapError
	probe := &rig.Probe[SkiRental]{}
	onError := tps.ExceptionHandlerFunc(func(err error) {
		var gap *tps.ReplayGapError
		if errors.As(err, &gap) {
			mu.Lock()
			gaps = append(gaps, gap)
			mu.Unlock()
		}
	})
	if err := sub.Subscribe(probe, onError); err != nil {
		t.Fatal(err)
	}
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := pub.Publish(SkiRental{Shop: fmt.Sprintf("shop-%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(1)
	probe.Await(t, 1)

	c.Partition([]string{"rdv", "pub"}, []string{"sub"})
	publish(40)
	rig.Wait(t, "retention to drop the events after the subscriber's cursor", func() bool {
		log := rdv.Inspect().EventLog
		return len(log) == 1 && log[0].LastSeq == 41 && log[0].FirstSeq > 2
	})
	kept := rdv.Inspect().EventLog[0]
	c.Heal()
	rig.Wait(t, "a *tps.ReplayGapError", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gaps) > 0
	})
	mu.Lock()
	gap := gaps[0]
	mu.Unlock()
	if gap.First != kept.FirstSeq || gap.Last != kept.LastSeq || gap.Tentative {
		t.Fatalf("gap %+v, want %d..%d, not tentative", gap, kept.FirstSeq, kept.LastSeq)
	}
}
