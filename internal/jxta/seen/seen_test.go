package seen

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func TestObserveNewThenDuplicate(t *testing.T) {
	c := New()
	id := jid.FromSeed(jid.KindMessage, 1)
	if !c.Observe(id) {
		t.Fatal("first Observe returned false")
	}
	if c.Observe(id) {
		t.Fatal("second Observe returned true")
	}
	if !c.Seen(id) {
		t.Fatal("Seen false after Observe")
	}
	if c.Seen(jid.FromSeed(jid.KindMessage, 2)) {
		t.Fatal("Seen true for never-observed ID")
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := New(WithTTL(time.Minute), WithClock(clk.now))
	id := jid.FromSeed(jid.KindMessage, 1)
	c.Observe(id)
	clk.advance(59 * time.Second)
	if !c.Seen(id) {
		t.Fatal("expired before TTL")
	}
	clk.advance(2 * time.Second)
	if c.Seen(id) {
		t.Fatal("still seen after TTL")
	}
	if !c.Observe(id) {
		t.Fatal("re-observe after expiry should be new")
	}
}

func TestCapacityEvictsOldest(t *testing.T) {
	c := New(WithCapacity(3))
	ids := make([]jid.ID, 5)
	for i := range ids {
		ids[i] = jid.FromSeed(jid.KindMessage, uint64(i))
		c.Observe(ids[i])
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Seen(ids[0]) || c.Seen(ids[1]) {
		t.Fatal("oldest entries not evicted")
	}
	for _, id := range ids[2:] {
		if !c.Seen(id) {
			t.Fatalf("recent entry %v evicted", id)
		}
	}
}

func TestLenAfterMixedOps(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := New(WithTTL(10*time.Second), WithClock(clk.now))
	for i := 0; i < 10; i++ {
		c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
		clk.advance(time.Second)
	}
	// Entries observed at t=0..4 have expired by t=10 (TTL 10s: age >= 10).
	if got := c.Len(); got != 9 {
		t.Fatalf("Len = %d, want 9", got)
	}
	clk.advance(time.Hour)
	if got := c.Len(); got != 0 {
		t.Fatalf("Len after long idle = %d", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	c := New()
	const goroutines = 8
	const ids = 100
	counts := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				if c.Observe(jid.FromSeed(jid.KindMessage, uint64(i))) {
					counts[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	// Exactly one goroutine wins "new" per ID.
	if total != ids {
		t.Fatalf("total new observations = %d, want %d", total, ids)
	}
}

// TestShardedConcurrentObserve exercises the striped configuration (a
// capacity large enough for multiple shards) with parallel observers:
// every ID must be reported new exactly once across all goroutines, with
// no lost dedupes on any stripe.
func TestShardedConcurrentObserve(t *testing.T) {
	c := New(WithCapacity(1 << 16))
	const goroutines = 8
	const ids = 4096
	var news atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the ID space from a different offset so
			// shard locks genuinely interleave.
			for i := 0; i < ids; i++ {
				id := jid.FromSeed(jid.KindMessage, uint64((i+g*ids/goroutines)%ids))
				if c.Observe(id) {
					news.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if news.Load() != ids {
		t.Fatalf("new observations = %d, want %d", news.Load(), ids)
	}
	if c.Len() != ids {
		t.Fatalf("Len = %d, want %d", c.Len(), ids)
	}
	for i := 0; i < ids; i++ {
		if !c.Seen(jid.FromSeed(jid.KindMessage, uint64(i))) {
			t.Fatalf("id %d lost", i)
		}
	}
}

// TestShardedExpiryUnderLoad advances the clock while parallel observers
// insert: expiry must never drop a live entry, and an expired ID must be
// observable as new again.
func TestShardedExpiryUnderLoad(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1, 0)}
	c := New(WithCapacity(1<<16), WithTTL(time.Minute), WithClock(clk.now))
	const old = 1024
	for i := 0; i < old; i++ {
		c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
	}
	clk.advance(30 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 512; i++ {
				c.Observe(jid.FromSeed(jid.KindMessage, uint64(10_000+g*512+i)))
				if i%64 == 0 {
					clk.advance(time.Millisecond) // concurrent expiry sweeps
				}
			}
		}(g)
	}
	wg.Wait()
	// The old generation is still within TTL: nothing may have been lost.
	for i := 0; i < old; i++ {
		if !c.Seen(jid.FromSeed(jid.KindMessage, uint64(i))) {
			t.Fatalf("live entry %d lost during concurrent sweeps", i)
		}
	}
	clk.advance(time.Minute)
	if !c.Observe(jid.FromSeed(jid.KindMessage, 1)) {
		t.Fatal("expired ID not new again")
	}
}

// TestShardedCapacityBound floods a striped cache far past capacity from
// several goroutines: the live count must stay within the configured
// bound.
func TestShardedCapacityBound(t *testing.T) {
	const capacity = 4096
	c := New(WithCapacity(capacity))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < capacity; i++ {
				c.Observe(jid.FromSeed(jid.KindMessage, uint64(g*capacity+i)))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", got, capacity)
	}
	if got := c.Len(); got < capacity/2 {
		t.Fatalf("Len = %d suspiciously low after flood (capacity %d)", got, capacity)
	}
}

// TestObserveSteadyStateAllocs pins the allocation-free ring design:
// once a shard's ring and map have warmed up, the Observe cycle
// (insert + evict) must not allocate.
func TestObserveSteadyStateAllocs(t *testing.T) {
	c := New(WithCapacity(1024))
	for i := 0; i < 4096; i++ { // warm every shard past its ring size
		c.Observe(jid.FromSeed(jid.KindMessage, uint64(i)))
	}
	n := uint64(1 << 20)
	allocs := testing.AllocsPerRun(2000, func() {
		n++
		c.Observe(jid.FromSeed(jid.KindMessage, n))
	})
	if allocs > 0.1 {
		t.Errorf("steady-state Observe allocates %.2f/op, want 0", allocs)
	}
}

// TestObserveHeapBoundedUnderChurn turns a full cache over 128 times,
// one fresh ID in and the oldest out per call. Observe allocates now
// and then under such churn: the shards' index maps grow to absorb the
// deletions they keep. That growth must level off — the heap after GC
// at turnover 128 stays at its turnover-32 value, and below twice the
// just-filled heap — or it is a leak.
func TestObserveHeapBoundedUnderChurn(t *testing.T) {
	if israce.Enabled {
		t.Skip("two million observations; slow under the race detector")
	}
	const capacity, turnovers = 16384, 128
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := New(WithCapacity(capacity))
	seed := uint64(0)
	turnOver := func() {
		for i := 0; i < capacity; i++ {
			seed++
			c.Observe(jid.FromSeed(jid.KindMessage, seed))
		}
	}
	turnOver()
	filled := heap()
	var at32 uint64
	for n := 1; n <= turnovers; n++ {
		turnOver()
		if n == 32 {
			at32 = heap()
		}
	}
	at128 := heap()
	runtime.KeepAlive(c)
	const slack = 64 << 10
	if at128 > at32+slack || at128 > 2*filled {
		t.Fatalf("heap after GC: %d B just filled, %d at turnover 32, %d at turnover %d: still growing", filled, at32, at128, turnovers)
	}
	t.Logf("heap after GC: %d B just filled, %d at turnover 32, %d at turnover %d", filled, at32, at128, turnovers)
}

// Property: Observe returns true at most once per ID within TTL,
// regardless of the observation order.
func TestQuickAtMostOnceSemantics(t *testing.T) {
	f := func(seeds []uint64) bool {
		c := New()
		news := make(map[jid.ID]int)
		for _, s := range seeds {
			id := jid.FromSeed(jid.KindMessage, s%32)
			if c.Observe(id) {
				news[id]++
			}
		}
		for _, n := range news {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkObserveAtCapacity times Observe on a default cache that is
// full, with IDs it has not seen: each call inserts one entry and evicts
// the oldest, as on a peer that has delivered more events than the cache
// holds. "churned" has turned the cache over four times before the
// timer starts, so every shard's index map has deleted at its head and
// inserted at its tail for a long time; "just_filled" has only filled
// it. The IDs are random, as event IDs are, and built beforehand.
func BenchmarkObserveAtCapacity(b *testing.B) {
	for _, bc := range []struct {
		name    string
		fillers int
	}{{"churned", 5 * DefaultCapacity}, {"just_filled", DefaultCapacity}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New()
			for i := 0; i < bc.fillers; i++ {
				c.Observe(jid.NewMessage())
			}
			ids := make([]jid.ID, b.N)
			for i := range ids {
				ids[i] = jid.NewMessage()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, id := range ids {
				if !c.Observe(id) {
					b.Fatal("a fresh ID observed as a duplicate")
				}
			}
		})
	}
}
