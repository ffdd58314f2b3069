// Package chaos_test is the failure suite: the executable form of
// ROBUSTNESS.md. Every scenario stands up real platforms on the rig
// (internal/rig), injects its fault there, and reads the outcome the
// way an operator or an application would — Stats, Inspect, the admin
// endpoint, a subscribed probe. The engine under test owns the replay
// cursors and sends the replay requests; no scenario speaks the
// rendezvous protocol by hand (package rendezvous's own tests do that).
// Each scenario runs on both fabrics, as a /netsim and a /tcp subtest.
package chaos_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/trace"
	"github.com/tps-p2p/tps/internal/rig"
)

// Event is the one type every scenario publishes.
type Event struct{ Body string }

// peer is an edge node with its engine for Event.
type peer struct {
	*rig.Node
	eng  *tps.Engine[Event]
	intf *tps.Interface[Event]
}

// edge starts an edge node and its engine.
func edge(t *testing.T, c *rig.Cluster, cfg tps.Config) *peer {
	t.Helper()
	n := c.Start(cfg)
	eng, intf := rig.Engine[Event](t, n)
	return &peer{Node: n, eng: eng, intf: intf}
}

// ready joins the type's group and waits for its lease: what is
// published from here on reaches the rendezvous.
func (p *peer) ready(t *testing.T) {
	t.Helper()
	if err := p.eng.Announce(); err != nil {
		t.Fatal(err)
	}
	if !p.eng.AwaitReady(1, 10*time.Second) {
		t.Fatalf("%s: event group never ready", p.Config.Name)
	}
}

// subscribe attaches a probe as callback and exception handler.
func (p *peer) subscribe(t *testing.T) *rig.Probe[Event] {
	t.Helper()
	probe := &rig.Probe[Event]{}
	if err := p.intf.Subscribe(probe, probe); err != nil {
		t.Fatal(err)
	}
	return probe
}

// publish publishes prefix-from .. prefix-(to-1) and fails on an error.
func (p *peer) publish(t *testing.T, prefix string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := p.intf.Publish(Event{fmt.Sprintf("%s-%d", prefix, i)}); err != nil {
			t.Fatalf("%s: publish %s-%d: %v", p.Config.Name, prefix, i, err)
		}
	}
}

// counter reads one counter of a node's Stats.
func counter(n *rig.Node, subsystem, key string) int64 { return n.Stats().Counter(subsystem, key) }

// stream finds, in n's event log, the event group's stream as numbered
// by origin: n's own log of it when origin is n, its replicated copy
// otherwise.
func stream(n, origin *rig.Node) (obs.LogTopicEntry, bool) {
	for _, e := range n.Inspect().EventLog {
		from, _, copied := replica.ParseKey(e.Topic)
		if !copied {
			from = jidOf(n)
		}
		if from == jidOf(origin) {
			return e, true
		}
	}
	return obs.LogTopicEntry{}, false
}

func jidOf(n *rig.Node) jid.ID {
	id, err := jid.Parse(n.PeerID())
	if err != nil {
		panic(err)
	}
	return id
}

// awaitTail waits until n's log holds origin's stream up to seq want:
// publishing is asynchronous, and so is anti-entropy.
func awaitTail(t *testing.T, n, origin *rig.Node, want uint64) {
	t.Helper()
	rig.Wait(t, fmt.Sprintf("%s's stream to reach %d on %s", origin.Config.Name, want, n.Config.Name), func() bool {
		e, ok := stream(n, origin)
		return ok && e.LastSeq >= want
	})
}

// cursor is sub's replay cursor into origin's numbering.
func cursor(sub, origin *rig.Node) uint64 {
	for _, c := range sub.Inspect().Cursors {
		if c.Origin == origin.PeerID() {
			return c.Seq
		}
	}
	return 0
}

// holds reports whether n lists a peer entry of the kind for other.
func holds(n *rig.Node, kind string, other *rig.Node) bool {
	for _, pe := range n.Inspect().Peers {
		if pe.Kind == kind && pe.ID == other.PeerID() {
			return true
		}
	}
	return false
}

// gaps returns the replay-gap exceptions the probe was handed.
func gaps(p *rig.Probe[Event]) (out []*engine.ReplayGapError) {
	for _, err := range p.Errors() {
		var gap *engine.ReplayGapError
		if errors.As(err, &gap) {
			out = append(out, gap)
		}
	}
	return out
}

// TestPartitionHealRecovery cuts the rendezvous mesh in half, watches the
// surviving side account for the failures (send errors, suspicion), then
// heals the partition and requires delivery to resume without outside
// intervention.
func TestPartitionHealRecovery(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA := c.Start(tps.Config{Name: "rdv-a", Rendezvous: true})
		rdvB := c.Start(tps.Config{Name: "rdv-b", Rendezvous: true, Seeds: []string{"rdv-a"}})
		rig.Wait(t, "mesh lease rdv-b → rdv-a", func() bool { return holds(rdvA, obs.PeerClient, rdvB) })
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv-b"}})
		probe := sub.subscribe(t)
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv-a"}})
		pub.ready(t)
		// No log: the one-shot baseline is lost unless the subscriber's
		// group already holds its lease with rdv-b.
		if !sub.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("subscriber never ready")
		}

		// Baseline: the full path pub → rdv-a → rdv-b → sub works.
		pub.publish(t, "baseline", 0, 1)
		probe.Await(t, 1)

		c.Partition([]string{"rdv-a", "pub"}, []string{"rdv-b", "sub"})

		// Publishing into the partition must fail loudly at the mesh link:
		// rdv-a's sends to rdv-b error, feeding the failure detector.
		for i := 0; i < 4; i++ {
			_ = pub.intf.Publish(Event{fmt.Sprintf("lost-%d", i)})
		}
		rig.Wait(t, "rdv-a to suspect rdv-b", func() bool {
			return counter(rdvA, "rendezvous", "send_failures") >= 2 && counter(rdvA, "rendezvous", "suspected") >= 1
		})
		if n := probe.Count(); n != 1 {
			t.Fatalf("messages crossed the partition: probe has %d", n)
		}

		c.Heal()

		// rdv-b's seed loop re-leases into rdv-a (its reconnect is also the
		// proof of life that clears any eviction ban rdv-a accumulated), and
		// new publications flow again.
		rig.Wait(t, "delivery to recover after heal", func() bool {
			_ = pub.intf.Publish(Event{fmt.Sprintf("post-heal-%d", time.Now().UnixNano())})
			time.Sleep(100 * time.Millisecond)
			return probe.Count() >= 2
		})
	})
}

// TestLossyLinkDegradesProportionally runs one subscriber behind a 30%
// lossy link and one behind a clean link. The lossy subscriber must lose
// roughly the link's share of traffic — and nothing else: no send errors,
// no suspicion, no eviction. Loss is degradation, not failure.
func TestLossyLinkDegradesProportionally(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true})
		good := edge(t, c, tps.Config{Name: "good", Seeds: []string{"rdv"}})
		goodProbe := good.subscribe(t)
		lossy := edge(t, c, tps.Config{Name: "lossy", Seeds: []string{"rdv"}})
		lossyProbe := lossy.subscribe(t)
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv"}})
		pub.ready(t)
		// No log: what is published before a subscriber's group holds its
		// lease is lost, on the clean link too.
		if !good.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("clean-link subscriber never ready")
		}
		if !lossy.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("lossy subscriber never ready")
		}
		// Install the loss only after the join so setup is deterministic;
		// from here on, 30% of what reaches lossy vanishes.
		c.Lossy(lossy.Node, 0.3, 7)

		const n = 300
		pub.publish(t, "m", 0, n)
		goodProbe.Await(t, n)
		c.Settle()

		// 30% loss over 300 frames: expect ~210 through. The bounds are
		// wide (±8σ) because lease and discovery traffic also consumes
		// draws, but a catastrophic (near-zero) or spurious (lossless)
		// outcome must fail.
		if got := lossyProbe.Count(); got < 140 || got > 290 {
			t.Fatalf("lossy subscriber got %d/%d, want roughly 70%%", got, n)
		}
		for _, k := range []string{"send_failures", "suspected", "evicted"} {
			if v := counter(rdv, "rendezvous", k); v != 0 {
				t.Fatalf("silent loss must not trip the failure detector: %s = %d", k, v)
			}
		}
	})
}

// TestDeadPeerEvictedBehindBreaker kills a mesh rendezvous outright. The
// survivor must evict it after sustained failures, stop redialing while
// the breaker is open (skips counted, not dials), and reconnect on its
// own once the peer comes back after the cooldown — one lease, 2 s here.
func TestDeadPeerEvictedBehindBreaker(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvB := c.Start(tps.Config{Name: "rdv-b", Rendezvous: true})
		rdvA := c.Start(tps.Config{Name: "rdv-a", Rendezvous: true, Seeds: []string{"rdv-b"}})
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv-a"}})
		pub.ready(t)
		rig.Wait(t, "mesh lease rdv-a → rdv-b", func() bool { return holds(rdvA, obs.PeerRendezvous, rdvB) })

		c.Kill(rdvB)

		// Drive fan-outs at the dead peer until the failure detector evicts
		// it. Each publish costs one failed send; the suspect probe adds one
		// more, so a handful of publishes crosses EvictAfter.
		rig.Wait(t, "the dead peer's eviction", func() bool {
			_ = pub.intf.Publish(Event{"into the void"})
			time.Sleep(50 * time.Millisecond)
			return counter(rdvA, "rendezvous", "evicted") > 0
		})
		// While the breaker is open the seed loop must skip, not redial.
		rig.Wait(t, "breaker to skip seed redials", func() bool { return counter(rdvA, "rendezvous", "breaker_skips") >= 1 })
		// The eviction dropped every lease behind the dead peer's address.
		rig.Wait(t, "the dead peer to leave the connection table", func() bool { return !holds(rdvA, obs.PeerRendezvous, rdvB) })

		// The peer restarts on its address. After the cooldown rdv-a's seed
		// loop may dial again and the mesh must re-form without manual help.
		rdvB = c.Restart(rdvB)
		rig.Wait(t, "mesh to re-form after breaker cooldown", func() bool { return holds(rdvA, obs.PeerRendezvous, rdvB) })
	})
}

// TestSlowConsumerDoesNotStallMesh floods a subscriber that needs 25ms of
// processing per frame alongside a fast one. The publisher and the fast
// subscriber must be completely unaffected by the slow peer's backlog,
// and the slow peer must still receive everything — late, not lost.
func TestSlowConsumerDoesNotStallMesh(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		// 5 s leases: the slow node's grants queue behind its backlog.
		lease := 5 * time.Second
		c.Start(tps.Config{Name: "rdv", Rendezvous: true, LeaseTTL: lease})
		fast := edge(t, c, tps.Config{Name: "fast", Seeds: []string{"rdv"}, LeaseTTL: lease})
		fastProbe := fast.subscribe(t)
		slow := edge(t, c, tps.Config{Name: "slow", Seeds: []string{"rdv"}, LeaseTTL: lease})
		slowProbe := slow.subscribe(t)
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv"}, LeaseTTL: lease})
		pub.ready(t)
		if !slow.eng.AwaitReady(1, 10*time.Second) || !fast.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("subscribers never ready")
		}
		c.Throttle(slow.Node, 25*time.Millisecond)

		// 150 messages × 25ms pins the slow node down for ≥3.75s.
		const n = 150
		start := time.Now()
		pub.publish(t, "m", 0, n)
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("publishing blocked behind the slow consumer: %v for %d messages", took, n)
		}
		rig.Wait(t, "the fast subscriber", func() bool { return fastProbe.Count() >= n })
		if took := time.Since(start); took > 3*time.Second {
			t.Fatalf("fast subscriber stalled behind the slow one: %v", took)
		}
		if lag := slowProbe.Count(); lag >= n {
			t.Fatalf("slow consumer was not actually slow (%d/%d already delivered)", lag, n)
		}
		// Slow means late, not lossy: the backlog drains completely.
		slowProbe.Await(t, n)
		slowProbe.ExactlyOnce(t, n)
	})
}

// TestPropagateReportsPartitionToPublisher checks the error contract at
// the API surface: with peers connected but all of them unreachable,
// Publish must return ErrAllSendsFailed — not ErrNoPeers, and not nil.
func TestPropagateReportsPartitionToPublisher(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		c.Start(tps.Config{Name: "rdv", Rendezvous: true})
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv"}})
		pub.ready(t)

		// Cut the publisher's only uplink. Its rendezvous table still lists
		// rdv until the lease expires, so the very next publish attempts the
		// send and must surface the total failure.
		c.Partition([]string{"pub"}, []string{"rdv"})
		err := pub.intf.Publish(Event{"unreachable"})
		var pse *tps.PSError
		if !errors.Is(err, rendezvous.ErrAllSendsFailed) || !errors.As(err, &pse) {
			t.Fatalf("err = %v, want a PSError wrapping ErrAllSendsFailed", err)
		}

		c.Heal()
		// After healing, the same call recovers without restarting anything.
		rig.Wait(t, "publish to succeed after heal", func() bool { return pub.intf.Publish(Event{"reachable again"}) == nil })
	})
}

// TestTraceSurvivesLossyLink publishes traced events through a
// rendezvous into a subscriber behind a 30% lossy link, then assembles
// each event's hop trace from the three peers' admin endpoints. The set
// of events with a deliver hop at the subscriber must match exactly the
// events the probe actually received — tracing may neither invent
// deliveries (a hop for a dropped frame) nor lose them (a delivered
// event without its hop) — and every delivered event's trace must read
// publish→forward→deliver across the three peers.
func TestTraceSurvivesLossyLink(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		traced := func(cfg tps.Config) tps.Config {
			cfg.TraceRate, cfg.AdminAddr = 1, "127.0.0.1:0"
			return cfg
		}
		rdv := c.Start(traced(tps.Config{Name: "rdv", Rendezvous: true}))
		sub := edge(t, c, traced(tps.Config{Name: "sub", Seeds: []string{"rdv"}}))
		probe := sub.subscribe(t)
		pub := edge(t, c, traced(tps.Config{Name: "pub", Seeds: []string{"rdv"}}))
		pub.ready(t)
		if !sub.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("subscriber never ready")
		}
		c.Lossy(sub.Node, 0.3, 11)

		const n = 150
		pub.publish(t, "t", 0, n)
		c.Settle()

		delivered := make(map[string]bool, n)
		for _, ev := range probe.Events() {
			delivered[ev.Body] = true
		}
		if len(delivered) == 0 || len(delivered) == n {
			t.Fatalf("lossy link delivered %d/%d; the test needs both outcomes", len(delivered), n)
		}

		// The publisher records the publish hop inside Publish, and its
		// /trace lists events oldest first: entry i is event t-i.
		var list struct {
			Events []trace.EventSummary `json:"events"`
		}
		get(t, pub.Node, "/trace", &list)
		if len(list.Events) != n {
			t.Fatalf("publisher traced %d events, want %d", len(list.Events), n)
		}
		for i, summary := range list.Events {
			body := fmt.Sprintf("t-%d", i)
			var hops []trace.Hop
			for _, p := range []*rig.Node{pub.Node, rdv, sub.Node} {
				var doc struct {
					Hops []trace.Hop `json:"hops"`
				}
				get(t, p, "/trace/"+summary.EventID, &doc)
				hops = append(hops, doc.Hops...)
			}
			tr := trace.Assemble(summary.EventID, hops)

			// The publishing engine delivers its own event to its local
			// subscribers and records a deliver hop for it like any
			// other, once, whatever the link does; the hop that matters
			// here is the subscriber's.
			stages, own := make(map[string]int), 0
			for _, h := range tr.Hops {
				switch {
				case h.Stage == trace.StageDeliver && h.Peer == pub.PeerID():
					own++
				case h.Stage != trace.StageDeliver || h.Peer == sub.PeerID():
					stages[h.Stage]++
				}
			}
			if stages[trace.StagePublish] != 1 || own != 1 {
				t.Fatalf("%s: want exactly one publish hop and one deliver hop on the publisher, got %d and %d", body, stages[trace.StagePublish], own)
			}
			if delivered[body] {
				if stages[trace.StageForward] == 0 || stages[trace.StageDeliver] != 1 {
					t.Fatalf("%s delivered but trace lacks hops: %+v", body, tr.Hops)
				}
				if tr.Hops[0].Stage != trace.StagePublish {
					t.Fatalf("%s: trace must start at publish: %+v", body, tr.Hops)
				}
				last := tr.Hops[len(tr.Hops)-1]
				if last.Stage != trace.StageDeliver || last.Peer != sub.PeerID() {
					t.Fatalf("%s: trace must end with the subscriber's deliver hop: %+v", body, tr.Hops)
				}
			} else if stages[trace.StageDeliver] != 0 {
				t.Fatalf("%s was dropped by the link but has a deliver hop: %+v", body, tr.Hops)
			}
		}
	})
}

// get decodes a JSON document of a node's admin endpoint.
func get(t *testing.T, n *rig.Node, path string, into any) {
	t.Helper()
	resp, err := http.Get("http://" + n.AdminAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s on %s = %d", path, n.Config.Name, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousSubscriberIsDeliveredAndForwarded has the rendezvous
// subscribe too, so that one received message is both handed to a local
// handler and forwarded. The forwarding hop stamps its own copy of it:
// the local delivery keeps the path the message arrived with, the
// remote subscriber sees the rendezvous on its path — the case a
// rendezvous that stamps what it received in place must not break.
func TestRendezvousSubscriberIsDeliveredAndForwarded(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		traced := func(cfg tps.Config) tps.Config {
			cfg.TraceRate, cfg.AdminAddr = 1, "127.0.0.1:0"
			return cfg
		}
		rdv := edge(t, c, traced(tps.Config{Name: "rdv", Rendezvous: true}))
		local := rdv.subscribe(t)
		rdv.ready(t)
		sub := edge(t, c, traced(tps.Config{Name: "sub", Seeds: []string{"rdv"}}))
		remote := sub.subscribe(t)
		pub := edge(t, c, traced(tps.Config{Name: "pub", Seeds: []string{"rdv"}}))
		pub.ready(t)
		if !sub.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("subscriber never ready")
		}

		const n = 20
		pub.publish(t, "both", 0, n)
		local.Await(t, n)
		remote.Await(t, n)
		local.ExactlyOnce(t, n)
		remote.ExactlyOnce(t, n)

		var list struct {
			Events []trace.EventSummary `json:"events"`
		}
		get(t, pub.Node, "/trace", &list)
		if len(list.Events) != n {
			t.Fatalf("publisher traced %d events, want %d", len(list.Events), n)
		}
		arrived, forwarded := []string{pub.PeerID()}, []string{pub.PeerID(), rdv.PeerID()}
		for _, summary := range list.Events {
			want := map[[2]string][]string{
				{rdv.PeerID(), trace.StageDeliver}: arrived,
				{rdv.PeerID(), trace.StageForward}: forwarded,
				{sub.PeerID(), trace.StageDeliver}: forwarded,
			}
			for _, p := range []*rig.Node{rdv.Node, sub.Node} {
				var doc struct {
					Hops []trace.Hop `json:"hops"`
				}
				get(t, p, "/trace/"+summary.EventID, &doc)
				for _, h := range doc.Hops {
					key := [2]string{h.Peer, h.Stage}
					if path, ok := want[key]; !ok || !reflect.DeepEqual(h.Path, path) {
						t.Fatalf("%s: hop %s on %s has path %v, want %v", summary.EventID, h.Stage, p.Config.Name, h.Path, path)
					}
					delete(want, key)
				}
			}
			if len(want) != 0 {
				t.Fatalf("%s: hops missing: %v", summary.EventID, want)
			}
		}
	})
}

// TestRendezvousThatSubscribesMidStreamDropsNothing has a log-less
// rendezvous start an engine for a type and subscribe while an edge
// publisher streams it to an edge subscriber. The rendezvous serves the
// group it joins with the one service that already carries its
// clients' leases for it, so nothing changes for them: the edge has
// every event exactly once. The leases are long enough that no renewal
// lands in the stream — on a log-less rendezvous nothing else would
// resend what a lapse in forwarding cost. The rendezvous' own
// subscriber has every event published after its Subscribe returned.
func TestRendezvousThatSubscribesMidStreamDropsNothing(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		const lease = 6 * time.Second
		rdv := c.Start(tps.Config{Name: "rdv", Rendezvous: true, LeaseTTL: lease})
		pub := edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv"}, LeaseTTL: lease})
		pub.ready(t)
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}, LeaseTTL: lease})
		probe := sub.subscribe(t)
		if !sub.eng.AwaitReady(1, 10*time.Second) {
			t.Fatal("subscriber never ready")
		}

		// The stream: one event every 2 ms for 3 s.
		var published atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			ticker := time.NewTicker(2 * time.Millisecond)
			defer ticker.Stop()
			for end := time.Now().Add(3 * time.Second); time.Now().Before(end); <-ticker.C {
				i := published.Load()
				if err := pub.intf.Publish(Event{fmt.Sprintf("m-%d", i)}); err != nil {
					t.Errorf("publish m-%d: %v", i, err)
					return
				}
				published.Store(i + 1)
			}
		}()

		time.Sleep(300 * time.Millisecond)
		_, rdvIntf := rig.Engine[Event](t, rdv)
		local := &rig.Probe[Event]{}
		if err := rdvIntf.Subscribe(local, local); err != nil {
			t.Fatal(err)
		}
		// The event being published as Subscribe returned may have passed
		// the rendezvous before it; every later one may not.
		from := int(published.Load()) + 1
		<-done
		n := int(published.Load())
		if from >= n {
			t.Fatalf("the rendezvous subscribed after the stream ended (%d of %d)", from, n)
		}

		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)
		if ev, dup := local.Duplicate(); dup {
			t.Fatalf("the rendezvous' subscriber got %v twice", ev)
		}
		got := map[string]bool{}
		for _, ev := range local.Events() {
			got[ev.Body] = true
		}
		for i := from; i < n; i++ {
			if !got[fmt.Sprintf("m-%d", i)] {
				t.Fatalf("the rendezvous' subscriber lacks m-%d, published after it subscribed (m-%d..m-%d)", i, from, n-1)
			}
		}
	})
}
