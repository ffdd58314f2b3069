package chaos_test

// durability_test.go is the executable form of ROBUSTNESS.md's
// "Durability" section: with an event log on the rendezvous, a
// subscriber that was offline at publish time — a late joiner, a
// partitioned peer, or a peer whose rendezvous crashed and restarted —
// recovers the missed events because its engine presents its cursor on
// the next lease, and never observes a corrupt or duplicate event while
// doing so.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	jxtapeer "github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/rig"
)

// durable starts a rendezvous with an event log and a publisher whose
// event group is leased.
func durable(t *testing.T, c *rig.Cluster, cfg tps.Config) (rdv *rig.Node, pub *peer) {
	t.Helper()
	cfg.Name, cfg.Rendezvous, cfg.LogDir = "rdv", true, t.TempDir()
	rdv = c.Start(cfg)
	pub = edge(t, c, tps.Config{Name: "pub", Seeds: []string{"rdv"}})
	pub.ready(t)
	return rdv, pub
}

// TestLateJoinerCatchesUp publishes with no subscriber attached at all,
// then brings one up: the retained suffix must arrive via the one replay
// request its engine sends, each event once.
func TestLateJoinerCatchesUp(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		const n = 20
		pub.publish(t, "early", 0, n)
		awaitTail(t, rdv, rdv, n)

		// The subscriber joins only now — every event predates it.
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)
		if cur := cursor(sub.Node, rdv); cur != n {
			t.Fatalf("cursor after catch-up = %d, want %d", cur, n)
		}
		if sent, served := counter(sub.Node, "engine", "replay_requests"), counter(rdv, "rendezvous", "replay_served"); sent != 1 || served != n {
			t.Fatalf("%d replay requests sent, %d events served; want 1 and %d", sent, served, n)
		}
	})
}

// TestReconnectResumesFromCursor partitions a subscriber away, publishes
// through the outage — the rendezvous evicts the unreachable subscriber —
// and heals: the grant that follows is a new lease, the engine presents
// its cursor, and only the missed suffix is redelivered.
func TestReconnectResumesFromCursor(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)

		const live, missed = 5, 7
		pub.publish(t, "live", 0, live)
		probe.Await(t, live)
		if cur := cursor(sub.Node, rdv); cur != live {
			t.Fatalf("cursor after live phase = %d, want %d", cur, live)
		}

		// The request the subscriber sent when it joined may have found some
		// of the live events logged already; what counts is what the
		// reconnect adds.
		c.Settle()
		joined := counter(rdv, "rendezvous", "replay_served")

		c.Partition([]string{"rdv", "pub"}, []string{"sub"})
		pub.publish(t, "missed", 0, missed)
		awaitTail(t, rdv, rdv, live+missed)
		if n := probe.Count(); n != live {
			t.Fatalf("messages crossed the partition: %d", n)
		}

		c.Heal()
		probe.Await(t, live+missed)
		c.Settle()
		probe.ExactlyOnce(t, live+missed)
		if served := counter(rdv, "rendezvous", "replay_served") - joined; served != missed {
			t.Fatalf("%d events replayed, want the %d missed ones", served, missed)
		}
	})
}

// TestRendezvousRestartRecoversLog kills the logging rendezvous
// mid-stream and brings it back on its address and log directory: the
// recovered log must resume the old numbering, and a late joiner must be
// served both the pre-crash and the post-crash events.
func TestRendezvousRestartRecoversLog(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		const before, after = 8, 4
		pub.publish(t, "pre", 0, before)
		awaitTail(t, rdv, rdv, before)

		rdv = c.Restart(rdv)
		if e, ok := stream(rdv, rdv); !ok || e.FirstSeq != 1 || e.LastSeq != before {
			t.Fatalf("recovered log retains %d..%d (ok=%v), want 1..%d", e.FirstSeq, e.LastSeq, ok, before)
		}
		// The publisher's lease loop reconnects on its own; post-crash
		// publishes must extend the recovered numbering, not restart it.
		rig.Wait(t, "the publisher to lease again", func() bool { return holds(rdv, obs.PeerClient, pub.Node) })
		pub.publish(t, "post", 0, after)
		// 8 → 12; a log that restarted from scratch would re-number from 1.
		awaitTail(t, rdv, rdv, before+after)

		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		probe.Await(t, before+after)
		c.Settle()
		probe.ExactlyOnce(t, before+after)
	})
}

// TestOwnEventsReplayedAreDeduped: a publisher that subscribes to its
// own type gets its events by value, as it publishes them, and never
// decodes them: but a rendezvous that logged them serves them back to
// it when it asks for a replay — on its first lease, if the request
// reaches the rendezvous after the events, else after the rendezvous
// restarts and grants it a new lease. Each replayed event is one the
// peer has seen, dropped as a duplicate by its rendezvous service, which
// remembers the message IDs — the event IDs — it injected, and never
// delivered twice; the duplicates move its cursor into the log.
func TestOwnEventsReplayedAreDeduped(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		probe := pub.subscribe(t)
		const n = 10
		pub.publish(t, "own", 0, n)
		probe.Await(t, n)
		awaitTail(t, rdv, rdv, n)

		rdv = c.Restart(rdv)
		rig.Wait(t, "the replayed events to be dropped", func() bool {
			return counter(pub.Node, "rendezvous", "duplicates") >= n
		})
		c.Settle()
		probe.ExactlyOnce(t, n)
		if delivered := counter(pub.Node, "engine", "delivered"); delivered != n {
			t.Fatalf("the publisher delivered %d events, want its %d once each", delivered, n)
		}
		if cur := cursor(pub.Node, rdv); cur != n {
			t.Fatalf("the publisher's cursor into the log is %d after its own events were replayed, want %d", cur, n)
		}
	})
}

// legacy is a bare JXTA peer that publishes Events the way peers wrote
// them before an event's ID was its message's: a tps:EventID element of
// its own, and the type and codec (tps:Path, tps:Codec), beside the gob
// blob.
type legacy struct {
	p           *jxtapeer.Peer
	path, group string
}

// legacyPublisher boots a legacy peer on the cluster's fabric, seeded
// with seed, and waits for its lease of the Event group.
func legacyPublisher(t *testing.T, c *rig.Cluster, name string, seed *rig.Node) *legacy {
	t.Helper()
	node, err := typereg.New().Register(reflect.TypeOf(Event{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := jxtapeer.New(jxtapeer.Config{Name: name, Rendezvous: rendezvous.Config{
		Seeds: []endpoint.Address{endpoint.Address(seed.Addresses()[0])}, LeaseTTL: 2 * time.Second,
	}}, c.Transport(name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	l := &legacy{p: p, path: node.Path(), group: engine.TypeGroup(node.Path()).String()}
	p.Rendezvous().Join(l.group)
	if !p.Rendezvous().AwaitConnected(l.group, 10*time.Second) {
		t.Fatalf("%s: event group never leased", name)
	}
	return l
}

// publish publishes prefix-from .. prefix-(to-1) as legacy frames.
func (l *legacy) publish(t *testing.T, prefix string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		blob, err := codec.Gob{}.Encode(Event{fmt.Sprintf("%s-%d", prefix, i)})
		if err != nil {
			t.Fatal(err)
		}
		m := message.New(l.p.ID())
		m.AddID("tps", "EventID", jid.NewMessage())
		m.AddString("tps", "Path", l.path)
		m.AddString("tps", "Codec", "gob")
		m.AddBytes("tps", "Data", blob)
		if err := l.p.Rendezvous().Propagate(m, engine.EventService, l.group); err != nil {
			t.Fatalf("legacy publish %s-%d: %v", prefix, i, err)
		}
	}
}

// TestReplayAfterLiveDeliversOnce hands a subscriber every event twice,
// live and then replayed from a durable rendezvous. The two copies share
// the message ID, which is the event's, and that is all the peer's one
// duplicate check goes by. The subscriber leases a durable relay and the
// origin rendezvous, partitioned from the origin at first: every event
// reaches it live through the relay, numbered in the relay's log, so
// when the partition heals its cursor into the origin's log is still 0
// and the origin replays the whole log to it. Half the events come from
// a legacy peer and are logged with their tps:EventID element. Each
// event reaches the callback once; the replayed copies are the hop
// filter's duplicates, and they still move the cursor into the origin's
// log to its end: otherwise every later lease with the origin would
// replay the whole log again.
func TestReplayAfterLiveDeliversOnce(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		relay := c.Start(tps.Config{Name: "relay", Rendezvous: true, Seeds: []string{"rdv"}, LogDir: t.TempDir()})
		c.Partition([]string{"sub"}, []string{"rdv"})
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"relay", "rdv"}})
		probe := sub.subscribe(t)
		sub.ready(t)
		rig.Wait(t, "the relay to lease the origin", func() bool { return holds(rdv, obs.PeerClient, relay) })
		old := legacyPublisher(t, c, "old", rdv)

		const n = 10
		pub.publish(t, "new", 0, n)
		old.publish(t, "old", 0, n)
		probe.Await(t, 2*n)
		awaitTail(t, rdv, rdv, 2*n)
		if cur := cursor(sub.Node, rdv); cur != 0 {
			t.Fatalf("the subscriber's cursor into the origin's log is %d before it leased the origin, want 0", cur)
		}

		dups := counter(sub.Node, "rendezvous", "duplicates")
		c.Heal()
		rig.Wait(t, "the origin to replay its log", func() bool {
			return counter(rdv, "rendezvous", "replay_served") >= 2*n
		})
		rig.Wait(t, "the replayed copies to be dropped", func() bool {
			return counter(sub.Node, "rendezvous", "duplicates")-dups >= 2*n
		})
		c.Settle()
		probe.ExactlyOnce(t, 2*n)
		if delivered := counter(sub.Node, "engine", "delivered"); delivered != 2*n {
			t.Fatalf("the subscriber delivered %d events, want its %d once each", delivered, 2*n)
		}
		if cur := cursor(sub.Node, rdv); cur != 2*n {
			t.Fatalf("the subscriber's cursor into the origin's log is %d after its replay, want %d", cur, 2*n)
		}
	})
}

// TestRetainedLogOutlivesEveryPublisher: a durable rendezvous logs n
// events, the only publisher closes, and the rendezvous restarts on its
// log directory. A subscriber that arrives after all that knows the
// type's group by the type's name — no peer is left that could tell it
// — and is served all n, each once.
func TestRetainedLogOutlivesEveryPublisher(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		const n = 10
		pub.publish(t, "kept", 0, n)
		awaitTail(t, rdv, rdv, n)
		pub.Close()
		rdv = c.Restart(rdv)

		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)
		if served := counter(rdv, "rendezvous", "replay_served"); served != n {
			t.Fatalf("%d events replayed, want %d", served, n)
		}
	})
}

// TestRestartedRendezvousServesOnlyWhatWasMissed: a durable rendezvous
// comes back as the peer it was. A subscriber that was live for n-k of n
// events holds a cursor under that ID; on the lease the restarted
// rendezvous grants, it is served the k it missed. Under a new ID the
// cursor would name nobody, and the whole log would be replayed into the
// dedupe cache.
func TestRestartedRendezvousServesOnlyWhatWasMissed(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		const n, k = 12, 5
		pub.publish(t, "m", 0, n-k)
		probe.Await(t, n-k)
		awaitTail(t, rdv, rdv, n-k)
		id := rdv.PeerID()

		// The subscriber is away while the rendezvous restarts and the
		// publisher carries on.
		c.Partition([]string{"rdv", "pub"}, []string{"sub"})
		rdv = c.Restart(rdv)
		if rdv.PeerID() != id {
			t.Fatalf("restarted as %s, was %s", rdv.PeerID(), id)
		}
		rig.Wait(t, "the publisher to lease again", func() bool { return holds(rdv, obs.PeerClient, pub.Node) })
		pub.publish(t, "m", n-k, n)
		awaitTail(t, rdv, rdv, n)

		c.Heal()
		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)
		if served := counter(rdv, "rendezvous", "replay_served"); served != k {
			t.Fatalf("%d events replayed to a subscriber that missed %d", served, k)
		}
		if cur := cursor(sub.Node, rdv); cur != n {
			t.Fatalf("cursor = %d, want %d", cur, n)
		}
	})
}

// TestTornTailRecoveryServesIntactPrefix simulates a crash mid-append:
// after killing the rendezvous, garbage is written onto the event
// topic's active segment. The restarted peer must truncate the torn tail
// and serve every intact entry — and never deliver the corrupt one.
func TestTornTailRecoveryServesIntactPrefix(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		const n = 6
		pub.publish(t, "keep", 0, n)
		awaitTail(t, rdv, rdv, n)
		logged, _ := stream(rdv, rdv)
		c.Kill(rdv)

		// The torn write: a record header that claims more payload than the
		// file holds, exactly what a crash mid-append leaves behind.
		segs, err := filepath.Glob(filepath.Join(topicDir(t, rdv.Config.LogDir, logged.Topic), "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments found: %v", err)
		}
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xE7, 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()

		rdv = c.Restart(rdv)
		if e, ok := stream(rdv, rdv); !ok || e.LastSeq != n {
			t.Fatalf("recovered log retains up to %d, want %d (torn tail not truncated?)", e.LastSeq, n)
		}
		if torn := counter(rdv, "eventlog", "torn_tails"); torn != 1 {
			t.Fatalf("torn_tails = %d, want 1", torn)
		}
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)
		for _, ev := range probe.Events() {
			if !strings.HasPrefix(ev.Body, "keep-") {
				t.Fatalf("corrupt body delivered: %q", ev.Body)
			}
		}
		if errs := probe.Errors(); len(errs) != 0 {
			t.Fatalf("exceptions while replaying an intact prefix: %v", errs)
		}
	})
}

// TestEngineReplayConvergesOverLossyLink drops 30% of what reaches a late
// joiner, and of what it sends: requests, replayed events and the range
// signals that answer requests. Loss may slow replay down; the engine
// asks again for what stalled, and must not lose anything.
func TestEngineReplayConvergesOverLossyLink(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub := durable(t, c, tps.Config{})
		const n = 60
		pub.publish(t, "m", 0, n)
		awaitTail(t, rdv, rdv, n)

		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		if !sub.AwaitRendezvous(10 * time.Second) {
			t.Fatal("subscriber never leased")
		}
		c.Lossy(sub.Node, 0.3, 25)
		probe := sub.subscribe(t)
		probe.Await(t, n)
		probe.ExactlyOnce(t, n)
	})
}

// TestCursorBehindRetentionSignalsGap keeps a subscriber away while
// retention deletes what follows its cursor. On its next lease the
// engine presents that cursor: the application must get an explicit
// ReplayGapError bounding what survives, plus the retained suffix —
// silence is not an option.
func TestCursorBehindRetentionSignalsGap(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		// Tiny segments and a low cap force retention to drop the head.
		rdv, pub := durable(t, c, tps.Config{LogRetention: tps.LogRetention{SegmentBytes: 512, MaxBytes: 1536}})
		sub := edge(t, c, tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := sub.subscribe(t)
		pub.publish(t, "live", 0, 1)
		probe.Await(t, 1)
		if cur := cursor(sub.Node, rdv); cur != 1 {
			t.Fatalf("cursor after the live event = %d, want 1", cur)
		}

		c.Partition([]string{"rdv", "pub"}, []string{"sub"})
		const n = 40
		pub.publish(t, "m", 0, n)
		awaitTail(t, rdv, rdv, 1+n)
		kept, _ := stream(rdv, rdv)
		// Cursor 1: everything from 2 up to FirstSeq-1 is gone for good.
		if kept.FirstSeq <= 2 {
			t.Fatalf("retention never dropped the head: range %d..%d", kept.FirstSeq, kept.LastSeq)
		}

		c.Heal()
		rig.Wait(t, "a gap signal for a cursor behind retention", func() bool { return len(gaps(probe)) > 0 })
		if g := gaps(probe)[0]; g.First != kept.FirstSeq || g.Last != kept.LastSeq || g.Tentative || g.Topic != kept.Topic {
			t.Fatalf("gap %+v, want %d..%d of %s, not tentative", g, kept.FirstSeq, kept.LastSeq, kept.Topic)
		}
		// The retained suffix still arrives after the gap, and the gap
		// moved the cursor of the origin it named.
		probe.Await(t, 1+int(kept.LastSeq-kept.FirstSeq+1))
		c.Settle()
		probe.ExactlyOnce(t, 1+int(kept.LastSeq-kept.FirstSeq+1))
		if cur := cursor(sub.Node, rdv); cur != kept.LastSeq {
			t.Fatalf("cursor after the gap = %d, want %d", cur, kept.LastSeq)
		}
		if n := len(gaps(probe)); n != 1 {
			t.Fatalf("%d gap exceptions for one gap", n)
		}
	})
}

// Quote is the second type TestDurableLogHoldsOnlyEventGroups streams.
type Quote struct{ N int }

// TestDurableLogHoldsOnlyEventGroups runs a replica pair under two
// types for a few seconds of lease renewals. The net group's traffic is
// the control plane, not events: neither rendezvous logs it,
// and so neither copies it to the other. Every topic in either log is an
// event group a subscriber holds a cursor for, or a replica copy of one.
func TestDurableLogHoldsOnlyEventGroups(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: 200 * time.Millisecond})
		sub := failoverEdge(t, c, "sub")
		events := sub.subscribe(t)
		_, quotesIntf := rig.Engine[Quote](t, sub.Node)
		quotes := &rig.Probe[Quote]{}
		if err := quotesIntf.Subscribe(quotes, quotes); err != nil {
			t.Fatal(err)
		}
		pub := failoverEdge(t, c, "pub")
		pub.ready(t)
		quoteEng, quoteIntf := rig.Engine[Quote](t, pub.Node)
		if err := quoteEng.Announce(); err != nil {
			t.Fatal(err)
		}
		if !quoteEng.AwaitReady(1, 10*time.Second) {
			t.Fatal("quote group never ready")
		}

		// Two seconds of both streams, with leases renewing on every peer.
		const n = 50
		for i := 0; i < n; i++ {
			pub.publish(t, "m", i, i+1)
			if err := quoteIntf.Publish(Quote{i}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(40 * time.Millisecond)
		}
		events.Await(t, n)
		quotes.Await(t, n)
		awaitTail(t, rdvB, rdvA, n)

		groups := map[string]bool{}
		for _, cur := range sub.Inspect().Cursors {
			groups[cur.Group] = true
		}
		if len(groups) != 2 {
			t.Fatalf("subscriber holds cursors for %d groups, want the two event groups: %+v", len(groups), sub.Inspect().Cursors)
		}
		for _, rdv := range []*rig.Node{rdvA, rdvB} {
			for _, e := range rdv.Inspect().EventLog {
				topic := e.Topic
				if _, of, copied := replica.ParseKey(topic); copied {
					topic = of
				}
				if !groups[topic] {
					t.Errorf("%s logs topic %s (%d records), which is no event group", rdv.Config.Name, e.Topic, e.LastSeq)
				}
			}
		}
	})
}
