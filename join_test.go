package tps_test

// join_test.go holds the join path to its contract over loopback TCP:
// nothing between Subscribe (or a new lease) and the first replayed
// event waits for a ticker. Every peer here runs the replay loop's
// ticker at joinFindInterval, five times the one-second bound the tests
// set, so a step that still polls fails them.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/rig"
)

const (
	joinFindInterval = 5 * time.Second
	joinBound        = time.Second
)

// slowTick gives cfg the tickers that are too slow to help.
func slowTick(cfg tps.Config) tps.Config {
	cfg.FindInterval = joinFindInterval
	return cfg
}

// retained is the highest sequence the rendezvous' log holds of its one
// topic, the event group's; zero while it holds none, or more than one.
func retained(rdv *rig.Node) uint64 {
	if topics := rdv.Inspect().EventLog; len(topics) == 1 {
		return topics[0].LastSeq
	}
	return 0
}

// publishRetained publishes events [from, to) and waits for the
// rendezvous' log to hold them.
func publishRetained(t *testing.T, rdv *rig.Node, intf *tps.Interface[SkiRental], from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := intf.Publish(SkiRental{Shop: fmt.Sprintf("shop-%d", i), Brand: "Salomon"}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for retained(rdv) < uint64(to) {
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous log retains %d of %d events", retained(rdv), to)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// seedRetained boots a durable rendezvous, "rdv", and a publisher, and
// has the log retain n events nobody subscribed to.
func seedRetained(t *testing.T, n int) (c *rig.Cluster, rdv *rig.Node) {
	t.Helper()
	c = rig.New(t, rig.TCP)
	rdv = c.Start(slowTick(tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir()}))
	pubEng, pubIntf := rig.Engine[SkiRental](t, c.Start(slowTick(tps.Config{Name: "pub", Seeds: []string{"rdv"}})))
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	publishRetained(t, rdv, pubIntf, 0, n)
	return c, rdv
}

// waitWithin waits for g to hold n events and fails once bound has
// passed since start.
func waitWithin(t *testing.T, g *rig.Probe[SkiRental], n int, start time.Time, bound time.Duration) {
	t.Helper()
	for g.Count() < n {
		if time.Since(start) > bound {
			t.Fatalf("%d of %d events %v after the wake-up, bound is %v", g.Count(), n, time.Since(start).Round(time.Millisecond), bound)
		}
		time.Sleep(time.Millisecond)
	}
}

// exactlyOnce lets a stray duplicate surface, then checks that n events
// were each delivered once.
func exactlyOnce(t *testing.T, g *rig.Probe[SkiRental], n int) {
	t.Helper()
	time.Sleep(100 * time.Millisecond)
	g.ExactlyOnce(t, n)
}

// TestLateJoinerCatchesUpWithoutATick: a platform that boots and
// subscribes at once — before it holds any lease — has every retained
// event within a second: Subscribe joins the type's group at once, and
// attach, grant and Subscribe each wake the replay loop.
func TestLateJoinerCatchesUpWithoutATick(t *testing.T) {
	const n = 200
	c, _ := seedRetained(t, n)
	joiner := c.Start(slowTick(tps.Config{Name: "joiner", Seeds: []string{"rdv"}}))
	_, intf := rig.Engine[SkiRental](t, joiner)
	g := &rig.Probe[SkiRental]{}
	start := time.Now()
	if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	waitWithin(t, g, n, start, joinBound)
	exactlyOnce(t, g, n)
	if got := joiner.Stats().Counter("engine", "replay_requests"); got != 1 {
		t.Fatalf("joiner sent %d replay requests, want 1", got)
	}
}

// TestNoReplayRequestWithoutASubscriber: an engine that is attached and
// leased but has nobody to deliver to asks for nothing — a suffix
// replayed now would be marked seen and lost to the subscriber that
// comes next. The first Subscribe sends what was owed. A subscription to
// an unrelated type on the same platform does not change that: it asks
// for its own group's suffix only.
func TestNoReplayRequestWithoutASubscriber(t *testing.T) {
	for _, tc := range []struct {
		name      string
		unrelated bool
	}{{"alone", false}, {"beside_an_unrelated_subscription", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 50
			c, rdv := seedRetained(t, n)
			joiner := c.Start(slowTick(tps.Config{Name: "joiner", Seeds: []string{"rdv"}}))
			eng, intf := rig.Engine[SkiRental](t, joiner)
			if err := eng.Announce(); err != nil {
				t.Fatal(err)
			}
			if !eng.AwaitReady(1, 5*time.Second) {
				t.Fatal("joiner group never became ready")
			}
			// The unrelated group's own request, sent once it is leased.
			var unrelated int64
			if tc.unrelated {
				bikeEng, bikeIntf := rig.Engine[BikeRental](t, joiner)
				if err := bikeIntf.Subscribe(&rig.Probe[BikeRental]{}, nil); err != nil {
					t.Fatal(err)
				}
				if !bikeEng.AwaitReady(1, 5*time.Second) {
					t.Fatal("the unrelated group never became ready")
				}
				unrelated = 1
			}
			time.Sleep(200 * time.Millisecond) // attach and grant have both kicked by now
			if kicks := joiner.Stats().Counter("engine", "replay_kicks"); kicks == 0 {
				t.Fatal("no replay kick recorded: the guard was not exercised")
			}
			if sent, served := joiner.Stats().Counter("engine", "replay_requests"), rdv.Stats().Counter("rendezvous", "replay_served"); sent != unrelated || served != 0 {
				t.Fatalf("with no SkiRental subscriber: %d replay requests sent (want %d), %d events served", sent, unrelated, served)
			}

			g := &rig.Probe[SkiRental]{}
			start := time.Now()
			if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
				t.Fatal(err)
			}
			waitWithin(t, g, n, start, joinBound)
			exactlyOnce(t, g, n)
			if got := joiner.Stats().Counter("engine", "replay_requests"); got != unrelated+1 {
				t.Fatalf("joiner sent %d replay requests, want %d", got, unrelated+1)
			}
		})
	}
}

// TestLeaseRenewalWakesNothing: renewals that keep a lease alive wake
// no replay round and send no replay request.
func TestLeaseRenewalWakesNothing(t *testing.T) {
	const n = 20
	const ttl = 150 * time.Millisecond // the joiner renews every 50 ms
	c, _ := seedRetained(t, n)
	created := time.Now()
	joiner := c.Start(slowTick(tps.Config{Name: "joiner", Seeds: []string{"rdv"}, LeaseTTL: ttl}))
	_, intf := rig.Engine[SkiRental](t, joiner)
	g := &rig.Probe[SkiRental]{}
	if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	g.Await(t, n)

	type counts struct{ kicks, requests, framesIn int64 }
	read := func() counts {
		return counts{
			kicks:    joiner.Stats().Counter("engine", "replay_kicks"),
			requests: joiner.Stats().Counter("engine", "replay_requests"),
			framesIn: joiner.Stats().Counter("endpoint", "msgs_in"),
		}
	}
	before := read()
	time.Sleep(4 * ttl)
	after := read()
	if time.Since(created) >= joinFindInterval {
		t.Skip("the host was slow enough for a ticker to fire; nothing to conclude")
	}
	// Two groups renewing every ttl/3, and nothing else arrives.
	if grants := after.framesIn - before.framesIn; grants < 8 {
		t.Fatalf("%d lease grants arrived in %v, expected two dozen", grants, 4*ttl)
	}
	before.framesIn, after.framesIn = 0, 0
	if after != before {
		t.Fatalf("renewals moved the engine: %+v, then %+v", before, after)
	}
}

// TestLiveSubscriberCatchesUpOnItsNewLease: the rendezvous is restarted
// on the same address and log directory, the publisher — renewing every
// 100 ms — is leased with the new one first and publishes; the
// subscriber, renewing every 2 s, gets what it missed within a second
// of its own new lease.
func TestLiveSubscriberCatchesUpOnItsNewLease(t *testing.T) {
	const before, total = 10, 20
	c := rig.New(t, rig.TCP)
	rdv := c.Start(slowTick(tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir()}))
	pub := c.Start(slowTick(tps.Config{Name: "pub", Seeds: []string{"rdv"}, LeaseTTL: 300 * time.Millisecond}))
	pubEng, pubIntf := rig.Engine[SkiRental](t, pub)
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	sub := c.Start(slowTick(tps.Config{Name: "sub", Seeds: []string{"rdv"}, LeaseTTL: 6 * time.Second}))
	_, subIntf := rig.Engine[SkiRental](t, sub)
	g := &rig.Probe[SkiRental]{}
	if err := subIntf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	publishRetained(t, rdv, pubIntf, 0, before)
	g.Await(t, before)
	cursors := sub.Inspect().Cursors
	if len(cursors) == 0 {
		t.Fatal("subscriber holds no replay cursor")
	}
	eventGroup := cursors[0].Group

	rdv2 := c.Restart(rdv)
	// leased waits for the new rendezvous to hold p's lease for the
	// event group and returns when it was first seen.
	leased := func(p *rig.Node) time.Time {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, pe := range rdv2.Inspect().Peers {
				if pe.Kind == obs.PeerClient && pe.ID == p.PeerID() && slices.Contains(pe.Groups, eventGroup) {
					return time.Now()
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("%s never leased with the restarted rendezvous: %+v", p.PeerID(), rdv2.Inspect().Peers)
		return time.Time{}
	}
	leased(pub)
	publishRetained(t, rdv2, pubIntf, before, total)
	requests := sub.Stats().Counter("engine", "replay_requests")

	waitWithin(t, g, total, leased(sub), joinBound)
	exactlyOnce(t, g, total)
	if got := sub.Stats().Counter("engine", "replay_requests"); got <= requests {
		t.Fatalf("the new lease brought no replay request (%d before, %d after)", requests, got)
	}
}
