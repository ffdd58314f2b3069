package chaos_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/chaos"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

const svc = "chaos-app"

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// adder returns a helper that unwraps (peer, error) pairs from the
// cluster's Add methods, failing the test on error.
func adder(t *testing.T) func(*chaos.Peer, error) *chaos.Peer {
	return func(p *chaos.Peer, err error) *chaos.Peer {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestPartitionHealRecovery cuts the rendezvous mesh in half, watches the
// surviving side account for the failures (send errors, suspicion), then
// heals the partition and requires delivery to resume without outside
// intervention.
func TestPartitionHealRecovery(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 42})
	add := adder(t)
	defer c.Close()

	rdvA := add(c.AddRendezvous("rdv-a"))
	add(c.AddRendezvous("rdv-b", "rdv-a"))
	pub := add(c.AddEdge("pub", "rdv-a"))
	sub := add(c.AddEdge("sub", "rdv-b"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "rdv-b", "pub", "sub"); err != nil {
		t.Fatal(err)
	}

	// Baseline: the full path pub → rdv-a → rdv-b → sub works.
	if err := pub.Publish(svc, "baseline"); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitCount(1, 10*time.Second) {
		t.Fatal("baseline message never delivered")
	}

	c.Partition([]string{"rdv-a", "pub"}, []string{"rdv-b", "sub"})

	// Publishing into the partition must fail loudly at the mesh link:
	// rdv-a's sends to rdv-b error, feeding the failure detector.
	for i := 0; i < 4; i++ {
		_ = pub.Publish(svc, fmt.Sprintf("lost-%d", i))
	}
	waitFor(t, 10*time.Second, "rdv-a to suspect rdv-b", func() bool {
		c := rdvA.Rdv.Snapshot().Counters
		return c["send_failures"] >= 2 && c["suspected"] >= 1
	})
	if n := sink.Count(); n != 1 {
		t.Fatalf("messages crossed the partition: sink has %d", n)
	}

	c.Heal()

	// rdv-b's seed loop re-leases into rdv-a (its reconnect is also the
	// proof of life that clears any eviction ban rdv-a accumulated), and
	// new publications flow again.
	deadline := time.Now().Add(15 * time.Second)
	for sink.Count() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivery never recovered after heal: stats=%+v", rdvA.Rdv.Snapshot().Counters)
		}
		_ = pub.Publish(svc, "post-heal")
		time.Sleep(100 * time.Millisecond)
	}
}

// TestLossyLinkDegradesProportionally runs one subscriber behind a 30%%
// lossy link and one behind a clean link. The lossy subscriber must lose
// roughly the link's share of traffic — and nothing else: no send errors,
// no suspicion, no eviction. Loss is degradation, not failure.
func TestLossyLinkDegradesProportionally(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 7})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	good := add(c.AddEdge("good", "rdv"))
	lossy := add(c.AddEdge("lossy", "rdv"))
	goodSink, err := good.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	lossySink, err := lossy.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "pub", "good", "lossy"); err != nil {
		t.Fatal(err)
	}
	// Install the loss only after the lease handshake so setup is
	// deterministic; from here on, 30% of rdv→lossy traffic vanishes.
	c.Net.SetLink("rdv", "lossy", netsim.Link{Latency: time.Millisecond, Loss: 0.3})

	const n = 300
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if !goodSink.WaitCount(n, 20*time.Second) {
		t.Fatalf("clean subscriber got %d/%d", goodSink.Count(), n)
	}
	c.Net.WaitQuiesce(10 * time.Second)

	got := lossySink.Count()
	// 30% loss over 300 sends: expect ~210 through. The bounds are wide
	// (±8σ) because lease-renewal traffic also consumes draws from the
	// seeded RNG, but a catastrophic (near-zero) or spurious (lossless)
	// outcome must fail.
	if got < 140 || got > 290 {
		t.Fatalf("lossy subscriber got %d/%d, want roughly 70%%", got, n)
	}
	st := rdv.Rdv.Snapshot().Counters
	if st["send_failures"] != 0 || st["suspected"] != 0 || st["evicted"] != 0 {
		t.Fatalf("silent loss must not trip the failure detector: %+v", st)
	}
}

// TestDeadPeerEvictedBehindBreaker kills a mesh rendezvous outright. The
// survivor must evict it after sustained failures, stop redialing while
// the breaker is open (skips counted, not dials), and reconnect on its
// own once the peer comes back after the cooldown.
func TestDeadPeerEvictedBehindBreaker(t *testing.T) {
	c := chaos.New(chaos.Config{
		Seed:          3,
		LeaseTTL:      time.Second,
		SuspectAfter:  2,
		EvictAfter:    4,
		EvictCooldown: 2 * time.Second,
	})
	add := adder(t)
	defer c.Close()

	add(c.AddRendezvous("rdv-b"))
	rdvA := add(c.AddRendezvous("rdv-a", "rdv-b"))
	pub := add(c.AddEdge("pub", "rdv-a"))
	if err := c.AwaitConnected(10*time.Second, "rdv-a", "pub"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "mesh lease rdv-a → rdv-b", func() bool {
		return len(rdvA.Rdv.ConnectedRendezvous()) == 1
	})

	c.Kill("rdv-b")

	// Drive fan-outs at the dead peer until the failure detector evicts
	// it. Each publish costs one failed send; the suspect probe adds one
	// more, so a handful of publishes crosses EvictAfter.
	deadline := time.Now().Add(10 * time.Second)
	for rdvA.Rdv.Snapshot().Counters["evicted"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer never evicted: %+v", rdvA.Rdv.Snapshot().Counters)
		}
		_ = pub.Publish(svc, "into the void")
		time.Sleep(50 * time.Millisecond)
	}
	if n := len(rdvA.Rdv.ConnectedRendezvous()); n != 0 {
		t.Fatalf("evicted peer still in connection table (%d entries)", n)
	}

	// While the breaker is open the seed loop must skip, not redial.
	waitFor(t, 10*time.Second, "breaker to skip seed redials", func() bool {
		return rdvA.Rdv.Snapshot().Counters["breaker_skips"] >= 1
	})

	// The peer restarts (same name, and — as for any restarted peer —
	// the same identity). After the cooldown
	// rdv-a's seed loop may dial again and the mesh must re-form without
	// manual help.
	add(c.AddRendezvous("rdv-b"))
	waitFor(t, 15*time.Second, "mesh to re-form after breaker cooldown", func() bool {
		return len(rdvA.Rdv.ConnectedRendezvous()) == 1
	})
}

// TestSlowConsumerDoesNotStallMesh floods a subscriber that needs 25ms of
// processing per message alongside a fast one. The publisher and the fast
// subscriber must be completely unaffected by the slow peer's backlog,
// and the slow peer must still receive everything — late, not lost.
func TestSlowConsumerDoesNotStallMesh(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 11, LeaseTTL: 5 * time.Second})
	add := adder(t)
	defer c.Close()

	add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	fast := add(c.AddEdge("fast", "rdv"))
	slow, err := c.AddSlowEdge("slow", 25*time.Millisecond, "rdv")
	if err != nil {
		t.Fatal(err)
	}
	fastSink, err := fast.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	slowSink, err := slow.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "pub", "fast", "slow"); err != nil {
		t.Fatal(err)
	}

	// 150 messages × 25ms pins the slow node down for ≥3.75s.
	const n = 150
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	publishTook := time.Since(start)
	if publishTook > 2*time.Second {
		t.Fatalf("publishing blocked behind the slow consumer: %v for %d messages", publishTook, n)
	}
	if !fastSink.WaitCount(n, 3*time.Second) {
		t.Fatalf("fast subscriber stalled behind the slow one: %d/%d", fastSink.Count(), n)
	}
	if lag := slowSink.Count(); lag >= n {
		t.Fatalf("slow consumer was not actually slow (%d/%d already delivered)", lag, n)
	}
	// Slow means late, not lossy: the backlog drains completely.
	if !slowSink.WaitCount(n, 30*time.Second) {
		t.Fatalf("slow subscriber lost messages: %d/%d", slowSink.Count(), n)
	}
}

// TestPropagateReportsPartitionToPublisher checks the error contract at
// the API surface: with peers connected but all of them unreachable,
// Propagate must return ErrAllSendsFailed — not ErrNoPeers, and not nil.
func TestPropagateReportsPartitionToPublisher(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 5})
	add := adder(t)
	defer c.Close()

	add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}

	// Cut the publisher's only uplink. Its rendezvous table still lists
	// rdv until the lease expires, so the very next publish attempts the
	// send and must surface the total failure.
	c.Partition([]string{"pub"}, []string{"rdv"})
	err := pub.Publish(svc, "unreachable")
	if !errors.Is(err, rendezvous.ErrAllSendsFailed) {
		t.Fatalf("err = %v, want ErrAllSendsFailed", err)
	}

	c.Heal()
	// After healing, the same call recovers without restarting anything.
	waitFor(t, 10*time.Second, "publish to succeed after heal", func() bool {
		return pub.Publish(svc, "reachable again") == nil
	})
}

// TestTraceSurvivesLossyLink publishes traced events through a
// rendezvous into a subscriber behind a 30% lossy link, then assembles
// each event's hop trace from the per-peer stores. The set of events
// with a deliver hop at the subscriber must match exactly the frames
// the sink actually received — tracing may neither invent deliveries
// (a hop for a dropped frame) nor lose them (a delivered frame without
// its hop) — and every delivered event's trace must read
// publish→forward→deliver across the three peers.
func TestTraceSurvivesLossyLink(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 11})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "pub", "sub"); err != nil {
		t.Fatal(err)
	}
	c.Net.SetLink("rdv", "sub", netsim.Link{Latency: time.Millisecond, Loss: 0.3})

	const n = 150
	byBody := make(map[string]jid.ID, n)
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("t-%d", i)
		id, err := pub.PublishTraced(svc, body)
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		byBody[body] = id
	}
	c.Net.WaitQuiesce(10 * time.Second)

	delivered := make(map[string]bool, n)
	for _, b := range sink.Bodies() {
		delivered[b] = true
	}
	if len(delivered) == 0 || len(delivered) == n {
		t.Fatalf("lossy link delivered %d/%d; the test needs both outcomes", len(delivered), n)
	}

	for body, id := range byBody {
		ev := id.String()
		var hops []trace.Hop
		for _, p := range []*chaos.Peer{pub, rdv, sub} {
			hops = append(hops, p.Trace.Hops(ev)...)
		}
		tr := trace.Assemble(ev, hops)

		stages := make(map[string]int)
		for _, h := range tr.Hops {
			stages[h.Stage]++
		}
		if stages[trace.StagePublish] != 1 {
			t.Fatalf("%s: want exactly one publish hop, got %d", body, stages[trace.StagePublish])
		}
		if delivered[body] {
			if stages[trace.StageForward] == 0 || stages[trace.StageDeliver] == 0 {
				t.Fatalf("%s delivered but trace lacks hops: %+v", body, tr.Hops)
			}
			if tr.Hops[0].Stage != trace.StagePublish {
				t.Fatalf("%s: trace must start at publish: %+v", body, tr.Hops)
			}
			last := tr.Hops[len(tr.Hops)-1]
			if last.Stage != trace.StageDeliver || last.Peer != sub.EP.PeerID().String() {
				t.Fatalf("%s: trace must end with the subscriber's deliver hop: %+v", body, tr.Hops)
			}
		} else if stages[trace.StageDeliver] != 0 {
			t.Fatalf("%s was dropped by the link but has a deliver hop: %+v", body, tr.Hops)
		}
	}
}
