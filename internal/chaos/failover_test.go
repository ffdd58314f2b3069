package chaos_test

// failover_test.go is the executable form of ROBUSTNESS.md's
// "Replication" section: a replica set of rendezvous anti-entropy-syncs
// the durable event log, and active/standby clients fail over to a
// standby when the failure detector declares the active dead. The
// scenarios pin the acceptance criteria down: killing the primary
// mid-stream loses and duplicates nothing, logs converge byte-for-byte
// after a partition heals, a lagging replica serves a stale suffix
// silently (no false gap), and only losing every replica of a range
// surfaces a replay gap.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/recovery"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/rig"
)

// replicaPair starts rdvA and rdvB as each other's replica set. They are
// deliberately NOT mesh-seeded with each other — the sync protocol is
// the only channel between them, so a scenario that converges proves the
// protocol converged, not that propagation leaked across.
func replicaPair(t *testing.T, c *rig.Cluster, cfg tps.Config) (rdvA, rdvB *rig.Node) {
	t.Helper()
	cfg.Rendezvous = true
	cfg.Name, cfg.ReplicaSeeds, cfg.LogDir = "rdvA", []string{"rdvB"}, t.TempDir()
	rdvA = c.Start(cfg)
	cfg.Name, cfg.ReplicaSeeds, cfg.LogDir = "rdvB", []string{"rdvA"}, t.TempDir()
	return rdvA, c.Start(cfg)
}

// failoverEdge starts an active/standby client of the pair.
func failoverEdge(t *testing.T, c *rig.Cluster, name string) *peer {
	t.Helper()
	return edge(t, c, tps.Config{Name: name, Seeds: []string{"rdvA", "rdvB"}, Failover: true})
}

// awaitFailover waits until the peer has made the standby its active
// seed and holds the standby's lease for every group it leases: the net
// group and at least one event group. A lease with somebody is not
// enough: right after a kill the old one has not expired yet, so
// "connected" can still mean "leased at the corpse"; and what is
// published before the grant arrives has nobody to go to.
func awaitFailover(t *testing.T, p *peer, standby *rig.Node) {
	t.Helper()
	addr := standby.Addresses()[0]
	rig.Wait(t, p.Config.Name+" to fail over", func() bool {
		active, groups, atStandby := false, map[string]bool{}, map[string]bool{}
		for _, pe := range p.Inspect().Peers {
			switch {
			case pe.Kind == obs.PeerSeed && pe.Addr == addr:
				active = pe.Active
			case pe.Kind == obs.PeerRendezvous:
				for _, g := range pe.Groups {
					groups[g] = true
					atStandby[g] = atStandby[g] || pe.Addr == addr
				}
			}
		}
		for _, at := range atStandby {
			if !at {
				return false
			}
		}
		return active && len(groups) >= 2 && counter(p.Node, "rendezvous", "failovers") >= 1
	})
}

// topicDir finds the on-disk directory for a topic under one peer's log
// root by reading the TOPIC marker files — directory names are
// sanitized+hashed, so tests resolve them by content.
func topicDir(t *testing.T, root, topic string) string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("read log root %s: %v", root, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(root, e.Name(), "TOPIC"))
		if err == nil && string(b) == topic {
			return filepath.Join(root, e.Name())
		}
	}
	t.Fatalf("no directory for topic %q under %s", topic, root)
	return ""
}

// assertCopyIdentical compares origin's own segment files of the event
// stream with the copy's, byte for byte: same file names, same contents.
// This is the strongest convergence statement the replication protocol
// makes — a copy is the origin's frames under the origin's numbering and
// timestamps, so the files must be indistinguishable.
func assertCopyIdentical(t *testing.T, origin, copyAt *rig.Node) {
	t.Helper()
	own, _ := stream(origin, origin)
	copied, ok := stream(copyAt, origin)
	if !ok {
		t.Fatalf("%s holds no copy of %s's stream", copyAt.Config.Name, origin.Config.Name)
	}
	dirA, dirB := topicDir(t, origin.Config.LogDir, own.Topic), topicDir(t, copyAt.Config.LogDir, copied.Topic)
	segsA, err := filepath.Glob(filepath.Join(dirA, "*.seg"))
	if err != nil || len(segsA) == 0 {
		t.Fatalf("no segments in %s: %v", dirA, err)
	}
	segsB, err := filepath.Glob(filepath.Join(dirB, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segsA) != len(segsB) {
		t.Fatalf("segment counts differ: %d in %s, %d in %s", len(segsA), dirA, len(segsB), dirB)
	}
	for i := range segsA {
		if filepath.Base(segsA[i]) != filepath.Base(segsB[i]) {
			t.Fatalf("segment names diverge: %s vs %s", segsA[i], segsB[i])
		}
		a, err := os.ReadFile(segsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(segsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %s differs between replicas (%d vs %d bytes)", filepath.Base(segsA[i]), len(a), len(b))
		}
	}
}

// TestFailoverKillPrimaryMidStream runs the headline scenario: a
// 2-replica set, a publisher and subscriber in active/standby mode,
// the primary killed mid-stream. After the failure detector rotates
// both clients to the standby, the stream continues, and the engine's
// cursor for the dead primary — presented to the standby on the new
// lease — fills whatever the subscriber missed from the standby's copy:
// exactly-once observable end to end.
func TestFailoverKillPrimaryMidStream(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: 200 * time.Millisecond})
		sub := failoverEdge(t, c, "sub")
		probe := sub.subscribe(t)
		pub := failoverEdge(t, c, "pub")
		pub.ready(t)

		// First half of the stream through the primary. Wait only for the
		// log and its replica copy — NOT for the probe — so the kill lands
		// mid-stream from the subscriber's point of view whenever delivery
		// lags replication.
		const batch = 10
		pub.publish(t, "m", 0, batch)
		awaitTail(t, rdvA, rdvA, batch)
		awaitTail(t, rdvB, rdvA, batch)

		c.Kill(rdvA)
		awaitFailover(t, pub, rdvB)
		awaitFailover(t, sub, rdvB)

		// The stream continues through the standby (now origin rdvB), and
		// the dead primary's suffix is replayed from the standby's copy,
		// from wherever the subscriber's cursor got to.
		pub.publish(t, "m", batch, 2*batch)
		probe.Await(t, 2*batch)
		c.Settle()
		probe.ExactlyOnce(t, 2*batch)
		if cur := cursor(sub.Node, rdvA); cur != batch {
			t.Fatalf("origin-A cursor = %d, want %d", cur, batch)
		}
		if cur := cursor(sub.Node, rdvB); cur != batch {
			t.Fatalf("origin-B cursor = %d, want %d", cur, batch)
		}
		if g := gaps(probe); len(g) != 0 {
			t.Fatalf("a failover onto a synced replica raised gaps: %+v", g)
		}
	})
}

// TestFailoverIsOneElectionPerPeer: a failover edge subscribed to two
// types holds one lease with the primary, which carries three groups:
// the net group and one per event group. It is a lease of the peer's
// one rendezvous service, so when the primary dies the peer lists each
// seed once, one of them active, and fails over once.
func TestFailoverIsOneElectionPerPeer(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{})
		sub := failoverEdge(t, c, "sub")
		sub.subscribe(t)
		sub.ready(t)
		quoteEng, quoteIntf := rig.Engine[Quote](t, sub.Node)
		quotes := &rig.Probe[Quote]{}
		if err := quoteIntf.Subscribe(quotes, quotes); err != nil {
			t.Fatal(err)
		}
		if !quoteEng.AwaitReady(1, 10*time.Second) {
			t.Fatal("quote group never ready")
		}
		primary := rdvA.Addresses()[0]
		rig.Wait(t, "one lease of three groups with the primary", func() bool {
			var groups []int
			for _, pe := range sub.Inspect().Peers {
				if pe.Kind == obs.PeerRendezvous && pe.Addr == primary {
					groups = append(groups, len(pe.Groups))
				}
			}
			return slices.Equal(groups, []int{3})
		})

		c.Kill(rdvA)
		awaitFailover(t, sub, rdvB)
		seeds, active := map[string]int{}, 0
		for _, pe := range sub.Inspect().Peers {
			if pe.Kind != obs.PeerSeed {
				continue
			}
			seeds[pe.Addr]++
			if pe.Active {
				active++
			}
		}
		if len(seeds) != 2 || seeds[primary] != 1 || seeds[rdvB.Addresses()[0]] != 1 || active != 1 {
			t.Fatalf("seed entries %v with %d active, want each seed once and one active", seeds, active)
		}
		if n := counter(sub.Node, "rendezvous", "failovers"); n != 1 {
			t.Fatalf("failovers = %d, want 1", n)
		}
	})
}

// TestAntiEntropyConvergesAfterPartition partitions the two replicas
// apart, streams into both sides, heals, and requires the replica
// copies to converge to the byte-identical segment files of each
// origin — the acceptance criterion for the sync protocol.
func TestAntiEntropyConvergesAfterPartition(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: 200 * time.Millisecond})
		pubA := edge(t, c, tps.Config{Name: "pubA", Seeds: []string{"rdvA"}})
		pubA.ready(t)
		pubB := edge(t, c, tps.Config{Name: "pubB", Seeds: []string{"rdvB"}})
		pubB.ready(t)

		// Pre-partition traffic so both replicas carry copies already.
		const pre, total = 3, 15
		pubA.publish(t, "a", 0, pre)
		pubB.publish(t, "b", 0, pre)
		awaitTail(t, rdvB, rdvA, pre)
		awaitTail(t, rdvA, rdvB, pre)

		// Partition the replicas apart; both sides keep accepting events the
		// other cannot see. The replicas are linked ONLY by anti-entropy, so
		// healing proves the protocol converges, not mesh propagation.
		c.Partition([]string{"rdvA", "pubA"}, []string{"rdvB", "pubB"})
		pubA.publish(t, "a", pre, total)
		pubB.publish(t, "b", pre, total)
		awaitTail(t, rdvA, rdvA, total)
		awaitTail(t, rdvB, rdvB, total)
		c.Settle()
		if e, _ := stream(rdvB, rdvA); e.LastSeq > pre {
			t.Fatalf("copies crossed the partition: rdvB holds A@%d", e.LastSeq)
		}

		c.Heal()
		awaitTail(t, rdvB, rdvA, total)
		awaitTail(t, rdvA, rdvB, total)

		// Byte-identical convergence, both directions.
		assertCopyIdentical(t, rdvA, rdvB)
		assertCopyIdentical(t, rdvB, rdvA)
	})
}

// TestFarBehindReplicaPullsWindowByWindow partitions a replica away
// while its origin logs more than a thousand records, then heals. The
// copy must converge to byte-identical segments by pulling a window at
// a time — a pull is answered with at most recovery.W records, and the
// answer's range signal makes the next pull — so within one digest
// round: the origin sends no digest per window to have the rest pulled.
func TestFarBehindReplicaPullsWindowByWindow(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: time.Second})
		pubA := edge(t, c, tps.Config{Name: "pubA", Seeds: []string{"rdvA"}})
		pubA.ready(t)

		// In batches the publisher's send queue holds: it sheds the oldest
		// frame past 1024.
		const n, batch = 2000, 500
		c.Partition([]string{"rdvA", "pubA"}, []string{"rdvB"})
		for i := 0; i < n; i += batch {
			pubA.publish(t, "a", i, i+batch)
			awaitTail(t, rdvA, rdvA, uint64(i+batch))
		}
		c.Settle()
		digests := counter(rdvB, "rendezvous", "sync_digests")

		c.Heal()
		awaitTail(t, rdvB, rdvA, n)
		assertCopyIdentical(t, rdvA, rdvB)
		pulls, records := counter(rdvA, "rendezvous", "sync_pulls"), counter(rdvA, "rendezvous", "sync_records")
		if records < n || records > recovery.W*pulls {
			t.Fatalf("%d records served over %d pulls, want %d or more at most %d a pull", records, pulls, n, recovery.W)
		}
		if d := counter(rdvB, "rendezvous", "sync_digests") - digests; d > 2 {
			t.Fatalf("the copy converged over %d digests, want one round's", d)
		}
	})
}

// TestLaggingReplicaResetsPastRetentionGap partitions a replica away
// long enough for the origin's retention to trim past the replica's
// copied tail. After the heal, waiting for the trimmed bridge records
// would re-pull the same batch every sync round forever; instead the
// replica must detect the origin-side gap from the stamped retained
// head, reset its copy, restart at the head, and still converge to
// byte-identical segments — with the reset counted, not silent.
func TestLaggingReplicaResetsPastRetentionGap(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{
			ReplicaSyncInterval: 200 * time.Millisecond,
			LogRetention:        tps.LogRetention{SegmentBytes: 512, MaxBytes: 2048},
		})
		pubA := edge(t, c, tps.Config{Name: "pubA", Seeds: []string{"rdvA"}})
		pubA.ready(t)

		// Seed the copy, then cut the replicas apart and stream enough into
		// the origin that retention drops everything the copy holds.
		const pre, total = 3, 40
		pubA.publish(t, "a", 0, pre)
		awaitTail(t, rdvB, rdvA, pre)
		c.Partition([]string{"rdvA", "pubA"}, []string{"rdvB"})
		pubA.publish(t, "a", pre, total)
		awaitTail(t, rdvA, rdvA, total)
		own, _ := stream(rdvA, rdvA)
		if own.FirstSeq <= pre+1 {
			t.Fatalf("origin retention never trimmed past the copy: range %d..%d", own.FirstSeq, own.LastSeq)
		}

		c.Heal()
		awaitTail(t, rdvB, rdvA, own.LastSeq)
		if n := counter(rdvB, "rendezvous", "sync_resets"); n < 1 {
			t.Fatalf("sync_resets = %d, want >= 1 (the gap must be counted)", n)
		}
		if copied, _ := stream(rdvB, rdvA); copied.FirstSeq != own.FirstSeq || copied.LastSeq != own.LastSeq {
			t.Fatalf("copy range after reset = %d..%d, want origin's %d..%d", copied.FirstSeq, copied.LastSeq, own.FirstSeq, own.LastSeq)
		}
		assertCopyIdentical(t, rdvA, rdvB)
	})
}

// TestSyncRejectsNonReplicaPeer points a rogue replica at peers that do
// not list it in their replica sets: a replicating rendezvous and a
// plain durable one with replication off. Its digests must be dropped
// (counted, not stored) on both — otherwise any peer could plant forged
// history under a foreign origin's key, to be served to failover
// clients as authoritative — while the configured set keeps syncing.
func TestSyncRejectsNonReplicaPeer(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		sync := 150 * time.Millisecond
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: sync})
		rdvC := c.Start(tps.Config{Name: "rdvC", Rendezvous: true, LogDir: t.TempDir()}) // durable, replication off
		rogue := c.Start(tps.Config{Name: "rogue", Rendezvous: true, LogDir: t.TempDir(),
			ReplicaSeeds: []string{"rdvA", "rdvC"}, ReplicaSyncInterval: sync})
		pubR := edge(t, c, tps.Config{Name: "pubR", Seeds: []string{"rogue"}})
		pubR.ready(t)
		pubA := edge(t, c, tps.Config{Name: "pubA", Seeds: []string{"rdvA"}})
		pubA.ready(t)

		const n = 5
		pubR.publish(t, "r", 0, n)
		pubA.publish(t, "a", 0, n)
		awaitTail(t, rogue, rogue, n)
		awaitTail(t, rdvA, rdvA, n)

		// The configured set replicates; the rogue's digests bounce off both
		// targets.
		awaitTail(t, rdvB, rdvA, n)
		for _, target := range []*rig.Node{rdvA, rdvC} {
			rig.Wait(t, target.Config.Name+" to reject rogue sync ops", func() bool {
				return counter(target, "rendezvous", "sync_rejects") >= 1
			})
			for _, e := range target.Inspect().EventLog {
				if origin, _, copied := replica.ParseKey(e.Topic); copied && origin == jidOf(rogue) {
					t.Fatalf("%s stored a copy of the rogue's stream %s", target.Config.Name, e.Topic)
				}
			}
		}
		// Nothing flows through rdvB, so it has no stream of its own for
		// rdvA to pull: whatever rdvA applied would be the rogue's.
		if n := counter(rdvA, "rendezvous", "sync_applied"); n != 0 {
			t.Fatalf("rdvA applied %d sync records; only rdvB pulls in this topology", n)
		}
	})
}

// TestLaggingReplicaServesStaleSuffix fails a subscriber over to a
// standby whose copy of the dead primary ends before the subscriber's
// cursor. The cursor proves those entries were already delivered, so the
// standby must serve nothing and signal nothing — a lagging standby is
// stale, not evidence of loss.
func TestLaggingReplicaServesStaleSuffix(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: 200 * time.Millisecond})
		sub := failoverEdge(t, c, "sub")
		probe := sub.subscribe(t)
		pub := failoverEdge(t, c, "pub")
		pub.ready(t)

		// The standby copies half the stream, then loses sight of the
		// primary; the subscriber gets all of it live.
		const n = 10
		pub.publish(t, "m", 0, n/2)
		awaitTail(t, rdvB, rdvA, n/2)
		c.Partition([]string{"rdvA", "pub", "sub"}, []string{"rdvB"})
		pub.publish(t, "m", n/2, n)
		probe.Await(t, n)
		if cur := cursor(sub.Node, rdvA); cur != n {
			t.Fatalf("cursor = %d, want %d", cur, n)
		}

		// The primary dies with the second half; the subscriber re-homes to
		// the standby and presents cursor n against a copy ending at n/2.
		asked := counter(sub.Node, "engine", "replay_requests")
		c.Kill(rdvA)
		c.Heal()
		awaitFailover(t, sub, rdvB)
		rig.Wait(t, "the subscriber's replay requests to the standby", func() bool {
			return counter(sub.Node, "engine", "replay_requests") >= asked+2 // its own log, and the dead primary's
		})
		c.Settle()
		if copied, _ := stream(rdvB, rdvA); copied.LastSeq != n/2 {
			t.Fatalf("the standby's copy ends at %d, want the lag at %d", copied.LastSeq, n/2)
		}
		if g := gaps(probe); len(g) != 0 {
			t.Fatalf("lagging replica signalled a gap: %+v", g[0])
		}
		if served, gapped := counter(rdvB, "rendezvous", "replay_served"), counter(rdvB, "rendezvous", "replay_gaps"); served != 0 || gapped != 0 {
			t.Fatalf("lagging replica served %d events and sent %d gaps, want nothing", served, gapped)
		}
		probe.ExactlyOnce(t, n)
	})
}

// TestDoubleKillSurfacesReplayGap loses every copy of a range: the
// primary dies before anti-entropy ever ran, so the standby holds
// nothing of the dead origin. The engine's cursor for that origin,
// presented to the standby, must come back as a ReplayGapError — an
// explicit unbounded gap, because silence would be indistinguishable
// from "nothing to replay".
func TestDoubleKillSurfacesReplayGap(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		// Sync off: the standby must genuinely hold nothing of the primary.
		rdvA, rdvB := replicaPair(t, c, tps.Config{ReplicaSyncInterval: time.Hour})
		sub := failoverEdge(t, c, "sub")
		probe := sub.subscribe(t)
		pub := failoverEdge(t, c, "pub")
		pub.ready(t)

		const n = 8
		pub.publish(t, "m", 0, n)
		probe.Await(t, n)
		group, _ := stream(rdvA, rdvA)

		c.Kill(rdvA)
		awaitFailover(t, sub, rdvB)

		// The subscriber resumes origin A at the standby — which retained
		// nothing of A. The range is gone from every replica; that is the
		// one case that must surface as a gap.
		rig.Wait(t, "a gap after losing every replica of the range", func() bool { return len(gaps(probe)) > 0 })
		g := gaps(probe)[0]
		if g.Topic != group.Topic || g.First != 0 || g.Last != 0 {
			t.Fatalf("gap %+v, want 0..0 of %s (nothing retained)", g, group.Topic)
		}
		// The standby never completed a digest exchange (sync is off),
		// so its loss verdict must be flagged provisional.
		if !g.Tentative {
			t.Fatal("gap from a never-synced replica not marked tentative")
		}
		// Nothing is retained, so no cursor moved: the dead primary's
		// stands where delivery left it.
		if cur := cursor(sub.Node, rdvA); cur != n {
			t.Fatalf("origin-A cursor = %d after an unbounded gap, want %d", cur, n)
		}
		probe.ExactlyOnce(t, n)
	})
}
