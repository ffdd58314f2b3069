package tps_test

// join_test.go holds the join path to its contract over loopback TCP:
// nothing between Subscribe (or a new lease) and the first replayed
// event waits for a ticker. Every peer here runs the finder and the
// replay loop at joinFindInterval, five times the one-second bound the
// tests set, so a step that still polls fails them.

import (
	"fmt"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs"
)

const (
	joinFindInterval = 5 * time.Second
	joinBound        = time.Second
)

// bootJoin starts a platform on a loopback TCP port whose tickers are
// too slow to help.
func bootJoin(t *testing.T, cfg tps.Config) *tps.Platform {
	t.Helper()
	cfg.FindInterval = joinFindInterval
	return bootTCP(t, cfg)
}

// joinEngine creates the SkiRental engine of a platform and its
// interface.
func joinEngine(t *testing.T, p *tps.Platform) (*tps.Engine[SkiRental], *tps.Interface[SkiRental]) {
	t.Helper()
	if err := tps.Register[SkiRental](p); err != nil {
		t.Fatal(err)
	}
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	intf, err := eng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, intf
}

// retained is the highest sequence any topic of the rendezvous' log
// holds: the event topic's, once events outnumber discovery chatter.
func retained(rdv *tps.Platform) uint64 {
	var most uint64
	for _, e := range rdv.Inspect().EventLog {
		most = max(most, e.LastSeq)
	}
	return most
}

// publishRetained publishes events [from, to) and waits for the
// rendezvous' log to hold them.
func publishRetained(t *testing.T, rdv *tps.Platform, intf *tps.Interface[SkiRental], from, to int) {
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

// seedRetained boots a durable rendezvous and a publisher, and has the
// log retain n events nobody subscribed to.
func seedRetained(t *testing.T, n int) (rdv *tps.Platform, seeds []string) {
	t.Helper()
	rdv = bootJoin(t, tps.Config{Name: "rdv", Rendezvous: true, LogDir: t.TempDir()})
	seeds = rdv.Addresses()[:1]
	pubEng, pubIntf := joinEngine(t, bootJoin(t, tps.Config{Name: "pub", Seeds: seeds}))
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	publishRetained(t, rdv, pubIntf, 0, n)
	return rdv, seeds
}

// waitWithin waits for g to hold n events and fails once bound has
// passed since start.
func waitWithin(t *testing.T, g *gather[SkiRental], n int, start time.Time, bound time.Duration) {
	t.Helper()
	for g.count() < n {
		if time.Since(start) > bound {
			t.Fatalf("%d of %d events %v after the wake-up, bound is %v", g.count(), n, time.Since(start).Round(time.Millisecond), bound)
		}
		time.Sleep(time.Millisecond)
	}
}

// exactlyOnce lets a stray duplicate surface, then checks that the n
// events shop-0..shop-(n-1) were each delivered once.
func exactlyOnce(t *testing.T, g *gather[SkiRental], n int) {
	t.Helper()
	time.Sleep(100 * time.Millisecond)
	counts := map[string]int{}
	for _, ev := range g.snapshot() {
		counts[ev.Shop]++
	}
	if len(counts) != n {
		t.Fatalf("%d distinct events delivered, want %d", len(counts), n)
	}
	for shop, c := range counts {
		if c != 1 {
			t.Fatalf("event %s delivered %d times", shop, c)
		}
	}
}

// TestLateJoinerCatchesUpWithoutATick: a platform that boots and
// subscribes at once — before its net group holds a lease, so the
// finder's first round reaches nobody — has every retained event within
// a second: the lease grant reruns the finder, and attach, grant and
// Subscribe each wake the replay loop.
func TestLateJoinerCatchesUpWithoutATick(t *testing.T) {
	const n = 200
	_, seeds := seedRetained(t, n)
	joiner := bootJoin(t, tps.Config{Name: "joiner", Seeds: seeds})
	_, intf := joinEngine(t, joiner)
	g := &gather[SkiRental]{}
	start := time.Now()
	if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	waitWithin(t, g, n, start, joinBound)
	exactlyOnce(t, g, n)
	if got := statCounter(joiner, "engine", "replay_requests"); got != 1 {
		t.Fatalf("joiner sent %d replay requests, want 1", got)
	}
}

// TestNoReplayRequestWithoutASubscriber: an engine that is attached and
// leased but has nobody to deliver to asks for nothing — a suffix
// replayed now would be marked seen and lost to the subscriber that
// comes next. The first Subscribe sends what was owed.
func TestNoReplayRequestWithoutASubscriber(t *testing.T) {
	const n = 50
	rdv, seeds := seedRetained(t, n)
	joiner := bootJoin(t, tps.Config{Name: "joiner", Seeds: seeds})
	eng, intf := joinEngine(t, joiner)
	if err := eng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !eng.AwaitReady(1, 5*time.Second) {
		t.Fatal("joiner group never became ready")
	}
	time.Sleep(200 * time.Millisecond) // attach and grant have both kicked by now
	if kicks := statCounter(joiner, "engine", "replay_kicks"); kicks == 0 {
		t.Fatal("no replay kick recorded: the guard was not exercised")
	}
	if sent, served := statCounter(joiner, "engine", "replay_requests"), statCounter(rdv, "rendezvous", "replay_served"); sent != 0 || served != 0 {
		t.Fatalf("with no subscriber: %d replay requests sent, %d events served", sent, served)
	}

	g := &gather[SkiRental]{}
	start := time.Now()
	if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	waitWithin(t, g, n, start, joinBound)
	exactlyOnce(t, g, n)
	if got := statCounter(joiner, "engine", "replay_requests"); got != 1 {
		t.Fatalf("joiner sent %d replay requests, want 1", got)
	}
}

// TestLeaseRenewalWakesNothing: renewals that keep a lease alive start
// no finder round and send no replay request.
func TestLeaseRenewalWakesNothing(t *testing.T) {
	const n = 20
	const ttl = 150 * time.Millisecond // the joiner renews every 50 ms
	_, seeds := seedRetained(t, n)
	created := time.Now()
	joiner := bootJoin(t, tps.Config{Name: "joiner", Seeds: seeds, LeaseTTL: ttl})
	_, intf := joinEngine(t, joiner)
	g := &gather[SkiRental]{}
	if err := intf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	waitN(t, g, n)

	type counts struct{ rounds, kicks, requests, framesIn int64 }
	read := func() counts {
		return counts{
			rounds:   statCounter(joiner, "engine", "find_rounds"),
			kicks:    statCounter(joiner, "engine", "replay_kicks"),
			requests: statCounter(joiner, "engine", "replay_requests"),
			framesIn: statCounter(joiner, "endpoint", "msgs_in"),
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
	logDir := t.TempDir()
	rdvCfg := tps.Config{Name: "rdv", Rendezvous: true, LogDir: logDir}
	rdv := bootJoin(t, rdvCfg)
	addr := rdv.Addresses()[0]

	pub := bootJoin(t, tps.Config{Name: "pub", Seeds: []string{addr}, LeaseTTL: 300 * time.Millisecond})
	pubEng, pubIntf := joinEngine(t, pub)
	if err := pubEng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 5*time.Second) {
		t.Fatal("publisher group never became ready")
	}
	sub := bootJoin(t, tps.Config{Name: "sub", Seeds: []string{addr}, LeaseTTL: 6 * time.Second})
	_, subIntf := joinEngine(t, sub)
	g := &gather[SkiRental]{}
	if err := subIntf.Subscribe(tps.CallBackFunc[SkiRental](g.Handle), nil); err != nil {
		t.Fatal(err)
	}
	publishRetained(t, rdv, pubIntf, 0, before)
	waitN(t, g, before)
	cursors := sub.Inspect().Cursors
	if len(cursors) == 0 {
		t.Fatal("subscriber holds no replay cursor")
	}
	eventGroup := cursors[0].Group

	rdv.Close()
	rdvCfg.ListenTCP = addr[len("tcp://"):]
	rdv2, err := tps.NewPlatform(rdvCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rdv2.Close)
	// leased waits for the new rendezvous to hold p's lease for the
	// event group and returns when it was first seen.
	leased := func(p *tps.Platform) time.Time {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, pe := range rdv2.Inspect().Peers {
				if pe.Kind == obs.PeerClient && pe.ID == p.PeerID() && pe.Group == eventGroup {
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
	requests := statCounter(sub, "engine", "replay_requests")

	waitWithin(t, g, total, leased(sub), joinBound)
	exactlyOnce(t, g, total)
	if got := statCounter(sub, "engine", "replay_requests"); got <= requests {
		t.Fatalf("the new lease brought no replay request (%d before, %d after)", requests, got)
	}
}
