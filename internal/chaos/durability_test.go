package chaos_test

// durability_test.go is the executable form of ROBUSTNESS.md's
// "Durability" section: with an event log on the rendezvous, a
// subscriber that was offline at publish time — a late joiner, a
// partitioned peer, or a peer whose rendezvous crashed and restarted —
// recovers the missed events by presenting its cursor, and never
// observes a corrupt or duplicate event while doing so.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/chaos"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/netsim"
)

// cursorFor computes the replay cursor a subscriber would present to
// origin: the highest CONTIGUOUS log sequence across the sink's
// messages. Contiguity matters — a lossy link punches holes into a
// replayed suffix, and a cursor past a hole would skip it forever.
func cursorFor(s *chaos.Sink, origin jid.ID) uint64 {
	seqs := map[uint64]bool{}
	for _, m := range s.Msgs() {
		if o, seq, ok := rendezvous.ReplayInfo(m); ok && o == origin {
			seqs[seq] = true
		}
	}
	var cur uint64
	for seqs[cur+1] {
		cur++
	}
	return cur
}

// awaitLogTail polls a rendezvous's log until topic "chaos" retains
// sequence want — publishing is asynchronous, appending happens on the
// rendezvous's receive path.
func awaitLogTail(t *testing.T, p *chaos.Peer, want uint64) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("log tail %d on %s", want, p.Name), func() bool {
		_, last, ok := p.Log.Range(chaos.GroupParam)
		return ok && last >= want
	})
}

// distinctBodies asserts the sink saw each want-body exactly once —
// replay must compose with the seen caches into exactly-once delivery.
func distinctBodies(t *testing.T, s *chaos.Sink, want int) {
	t.Helper()
	counts := map[string]int{}
	for _, b := range s.Bodies() {
		counts[b]++
	}
	if len(counts) != want {
		t.Fatalf("got %d distinct bodies, want %d", len(counts), want)
	}
	for b, n := range counts {
		if n != 1 {
			t.Fatalf("body %q delivered %d times, want exactly once", b, n)
		}
	}
}

// TestLateJoinerCatchesUp publishes with no subscriber attached at all,
// then brings one up: the retained suffix must arrive via replay, and a
// duplicate replay request must not double-deliver anything.
func TestLateJoinerCatchesUp(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 21, LogDir: t.TempDir()})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("early-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	awaitLogTail(t, rdv, n)

	// The subscriber joins only now — every event predates it.
	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := sub.Rdv.RequestReplay(rdv.EP.PeerID(), chaos.GroupParam, jid.Nil, 0); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitCount(n, 10*time.Second) {
		t.Fatalf("late joiner caught up %d/%d", sink.Count(), n)
	}

	// A second (redundant) request redelivers at the wire; the seen
	// cache must absorb every duplicate.
	if err := sub.Rdv.RequestReplay(rdv.EP.PeerID(), chaos.GroupParam, jid.Nil, 0); err != nil {
		t.Fatal(err)
	}
	c.Net.WaitQuiesce(5 * time.Second)
	distinctBodies(t, sink, n)
	if cur := cursorFor(sink, rdv.EP.PeerID()); cur != n {
		t.Fatalf("cursor after catch-up = %d, want %d", cur, n)
	}
}

// TestReconnectResumesFromCursor partitions a subscriber away, publishes
// through the outage, heals, and replays from the subscriber's cursor:
// only the missed suffix is redelivered and nothing is lost.
func TestReconnectResumesFromCursor(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 22, LogDir: t.TempDir()})
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

	const live = 5
	for i := 0; i < live; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("live-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if !sink.WaitCount(live, 10*time.Second) {
		t.Fatalf("live delivery got %d/%d", sink.Count(), live)
	}
	cursor := cursorFor(sink, rdv.EP.PeerID())
	if cursor != live {
		t.Fatalf("cursor after live phase = %d, want %d", cursor, live)
	}

	c.Partition([]string{"rdv", "pub"}, []string{"sub"})
	const missed = 7
	for i := 0; i < missed; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("missed-%d", i)); err != nil {
			t.Fatalf("publish during outage %d: %v", i, err)
		}
	}
	if n := sink.Count(); n != live {
		t.Fatalf("messages crossed the partition: %d", n)
	}

	c.Heal()
	if err := c.AwaitConnected(15*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := sub.Rdv.RequestReplay(rdv.EP.PeerID(), chaos.GroupParam, jid.Nil, cursor); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitCount(live+missed, 10*time.Second) {
		t.Fatalf("resume delivered %d/%d", sink.Count(), live+missed)
	}
	distinctBodies(t, sink, live+missed)
}

// TestRendezvousRestartRecoversLog kills the logging rendezvous
// mid-stream and brings it back under the same name: the recovered log
// must resume the old numbering, and a full replay must return both the
// pre-crash and post-crash events — while a cursor into some other
// rendezvous's log gets nothing.
func TestRendezvousRestartRecoversLog(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 23, LogDir: t.TempDir()})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}
	const before = 8
	for i := 0; i < before; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("pre-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	awaitLogTail(t, rdv, before)

	c.Kill("rdv")
	rdv2 := add(c.AddRendezvous("rdv"))
	if first, last, ok := rdv2.Log.Range(chaos.GroupParam); !ok || first != 1 || last != before {
		t.Fatalf("recovered log retains %d..%d (ok=%v), want 1..%d", first, last, ok, before)
	}

	// The publisher's lease loop reconnects on its own; post-crash
	// publishes must extend the recovered numbering, not restart it.
	if err := c.AwaitConnected(20*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}
	const after = 4
	for i := 0; i < after; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("post-%d", i)); err != nil {
			t.Fatalf("publish after restart %d: %v", i, err)
		}
	}
	// The recovered numbering extends 8 → 12; a log that restarted from
	// scratch would re-number from 1 and fail this wait.
	awaitLogTail(t, rdv2, before+after)

	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	// A subscriber that re-homed here from a dead rendezvous also holds
	// a cursor counted by that rendezvous's log. rdv is no replica of it,
	// so the foreign numbering means nothing here: serve nothing, signal
	// nothing.
	var gaps atomic.Int64
	sub.Rdv.SetReplayGapListener(func(jid.ID, string, uint64, uint64, bool) { gaps.Add(1) })
	elsewhere := jid.FromSeed(jid.KindPeer, 4242)
	if err := sub.Rdv.RequestReplay(rdv2.EP.PeerID(), chaos.GroupParam, elsewhere, 3); err != nil {
		t.Fatal(err)
	}
	c.Net.WaitQuiesce(5 * time.Second)
	if served := rdv2.Rdv.Snapshot().Counters["replay_served"]; sink.Count() != 0 || gaps.Load() != 0 || served != 0 {
		t.Fatalf("foreign-origin cursor at a non-replica: delivered %d, gaps %d, served %d; want nothing",
			sink.Count(), gaps.Load(), served)
	}
	// The self-origin request is what catches the subscriber up.
	if err := sub.Rdv.RequestReplay(rdv2.EP.PeerID(), chaos.GroupParam, jid.Nil, 0); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitCount(before+after, 10*time.Second) {
		t.Fatalf("replay across restart delivered %d/%d", sink.Count(), before+after)
	}
	distinctBodies(t, sink, before+after)
}

// TestTornTailRecoveryServesIntactPrefix simulates a crash mid-append:
// after killing the rendezvous, garbage is written onto its active
// segment. The restarted peer must truncate the torn tail and serve
// every intact entry — and never deliver the corrupt one.
func TestTornTailRecoveryServesIntactPrefix(t *testing.T) {
	dir := t.TempDir()
	c := chaos.New(chaos.Config{Seed: 24, LogDir: dir})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("keep-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	awaitLogTail(t, rdv, n)
	c.Kill("rdv")

	// The torn write: a record header that claims more payload than the
	// file holds, exactly what a crash mid-append leaves behind.
	segs, err := filepath.Glob(filepath.Join(dir, "rdv", "*", "*.seg"))
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

	rdv2 := add(c.AddRendezvous("rdv"))
	if _, last, ok := rdv2.Log.Range(chaos.GroupParam); !ok || last != n {
		t.Fatalf("recovered log retains up to %d, want %d (torn tail not truncated?)", last, n)
	}
	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := sub.Rdv.RequestReplay(rdv2.EP.PeerID(), chaos.GroupParam, jid.Nil, 0); err != nil {
		t.Fatal(err)
	}
	if !sink.WaitCount(n, 10*time.Second) {
		t.Fatalf("replay after torn tail delivered %d/%d", sink.Count(), n)
	}
	c.Net.WaitQuiesce(5 * time.Second)
	distinctBodies(t, sink, n)
	for _, b := range sink.Bodies() {
		if len(b) < 5 || b[:5] != "keep-" {
			t.Fatalf("corrupt body delivered: %q", b)
		}
	}
}

// TestReplayConvergesOverLossyLink drops 30% of rendezvous→subscriber
// traffic and drives the at-least-once loop: re-requesting from the
// current cursor until the sink converges on the full set. Loss slows
// replay down; it must not lose anything.
func TestReplayConvergesOverLossyLink(t *testing.T) {
	c := chaos.New(chaos.Config{Seed: 25, LogDir: t.TempDir()})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	awaitLogTail(t, rdv, n)

	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitConnected(10*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	c.Net.SetLink("rdv", "sub", netsim.Link{Latency: time.Millisecond, Loss: 0.3})

	// The retry loop an engine runs automatically, spelled out: ask,
	// wait, ask again from wherever the cursor got to.
	deadline := time.Now().Add(30 * time.Second)
	for sink.Count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("replay never converged over lossy link: %d/%d", sink.Count(), n)
		}
		cur := cursorFor(sink, rdv.EP.PeerID())
		if err := sub.Rdv.RequestReplay(rdv.EP.PeerID(), chaos.GroupParam, jid.Nil, cur); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	distinctBodies(t, sink, n)
}

// TestCursorBehindRetentionSignalsGap shrinks retention until early
// entries are deleted, then replays from an ancient cursor: the
// subscriber must get an explicit gap signal bounding what survives,
// plus the retained suffix — silence is not an option.
func TestCursorBehindRetentionSignalsGap(t *testing.T) {
	c := chaos.New(chaos.Config{
		Seed:   26,
		LogDir: t.TempDir(),
		// Tiny segments and a low cap force retention to drop the head.
		LogRetention: eventlog.Retention{SegmentBytes: 512, MaxBytes: 1536},
	})
	add := adder(t)
	defer c.Close()

	rdv := add(c.AddRendezvous("rdv"))
	pub := add(c.AddEdge("pub", "rdv"))
	if err := c.AwaitConnected(10*time.Second, "pub"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := pub.Publish(svc, fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	awaitLogTail(t, rdv, n)
	first, last, ok := rdv.Log.Range(chaos.GroupParam)
	if !ok || first <= 1 {
		t.Fatalf("retention never dropped the head: range %d..%d ok=%v", first, last, ok)
	}

	sub := add(c.AddEdge("sub", "rdv"))
	sink, err := sub.Subscribe(svc)
	if err != nil {
		t.Fatal(err)
	}
	gapCh := make(chan [2]uint64, 1)
	sub.Rdv.SetReplayGapListener(func(_ jid.ID, topic string, gFirst, gLast uint64, _ bool) {
		select {
		case gapCh <- [2]uint64{gFirst, gLast}:
		default:
		}
	})
	if err := c.AwaitConnected(10*time.Second, "sub"); err != nil {
		t.Fatal(err)
	}
	// Cursor 1: everything from 2 up to first-1 is gone for good.
	if err := sub.Rdv.RequestReplay(rdv.EP.PeerID(), chaos.GroupParam, jid.Nil, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-gapCh:
		if g[0] != first || g[1] != last {
			t.Fatalf("gap signal bounds %d..%d, want %d..%d", g[0], g[1], first, last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no gap signal for a cursor behind retention")
	}
	// The retained suffix still arrives after the gap.
	want := int(last - first + 1)
	if !sink.WaitCount(want, 10*time.Second) {
		t.Fatalf("retained suffix delivered %d/%d after gap", sink.Count(), want)
	}
}
