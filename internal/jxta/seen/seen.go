// Package seen provides a time-bounded duplicate-suppression cache.
//
// Propagated (many-to-many) communication in a peer-to-peer mesh
// inevitably delivers the same message along several paths; the SR-JXTA
// baseline remembers the event IDs it has seen and drops replays (the
// rendezvous service checks its publishers' numbered message IDs
// instead). Entries expire after a TTL and the cache is
// capacity-bounded, evicting oldest-first, so a chatty peer cannot
// exhaust memory.
//
// The cache is lock-striped: IDs hash to one of up to 16 shards, each an
// independently locked ring buffer plus index map, so concurrent
// deliveries on different connections deduplicate without serialising on
// a global mutex. Within a shard, entries live in a power-of-two ring —
// insertion order is arrival order, so both TTL expiry and capacity
// eviction pop from the head with no per-entry heap node and no free-list
// bookkeeping. Expiry is amortised: each operation on a shard first
// drains the stale prefix of its ring, which over time does constant work
// per inserted entry. Small caches (below one ring's worth of entries per
// shard) collapse to a single shard, preserving exact global oldest-first
// eviction where tests and tiny deployments expect it.
package seen

import (
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/obs"
)

// Defaults chosen to cover the paper's workloads (10 000-event floods)
// with headroom.
const (
	DefaultTTL      = 2 * time.Minute
	DefaultCapacity = 65536
)

const (
	// maxShards bounds the stripe count; must be a power of two.
	maxShards = 16
	// minShardCapacity is the smallest per-shard capacity worth striping
	// for: below it the map/ring overhead dominates and a single shard
	// with exact global FIFO semantics is used instead.
	minShardCapacity = 256
	// initialRingSize is the ring allocation on first use; rings double
	// up to the shard capacity, so idle caches stay small.
	initialRingSize = 64
)

// Cache is a concurrency-safe set of recently seen IDs.
type Cache struct {
	ttl      int64 // nanoseconds
	now      func() time.Time
	shards   []shard
	mask     uint64 // len(shards)-1; shard selector over jid.Hash64
	shardCap int    // per-shard entry bound; total is bounded by len(shards)*shardCap
}

// shard is one lock stripe: a FIFO ring of entries ordered by arrival
// plus the membership index. head and tail are monotonically increasing
// sequence numbers; live entries occupy [head, tail) and map to ring
// slots by sequence & (len(ring)-1).
type shard struct {
	mu   sync.Mutex
	byID map[jid.ID]struct{}
	ring []entry
	head uint64
	tail uint64

	// Shard-local counters, mutated under mu the operations already
	// hold, so counting adds no atomics and no allocations to Observe.
	observed   int64 // Observe calls
	duplicates int64 // Observe calls that found the ID present
	expired    int64 // entries dropped by TTL expiry
	evicted    int64 // entries dropped by capacity pressure
}

type entry struct {
	id jid.ID
	at int64 // unix nanoseconds
}

// Option customises a Cache.
type Option func(*config)

type config struct {
	ttl time.Duration
	cap int
	now func() time.Time
}

// WithTTL sets how long an ID stays remembered.
func WithTTL(ttl time.Duration) Option { return func(c *config) { c.ttl = ttl } }

// WithCapacity bounds the number of remembered IDs.
func WithCapacity(n int) Option { return func(c *config) { c.cap = n } }

// WithClock substitutes the time source (tests).
func WithClock(now func() time.Time) Option { return func(c *config) { c.now = now } }

// New creates a cache with the given options.
func New(opts ...Option) *Cache {
	cfg := config{ttl: DefaultTTL, cap: DefaultCapacity, now: time.Now}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.cap < 1 {
		cfg.cap = 1
	}
	n := 1
	for n < maxShards && cfg.cap/(n*2) >= minShardCapacity {
		n *= 2
	}
	c := &Cache{
		ttl:    int64(cfg.ttl),
		now:    cfg.now,
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		// Round the per-shard bound up so the sum covers the requested
		// capacity; the total stays within cap+n-1.
		shardCap: (cfg.cap + n - 1) / n,
	}
	return c
}

func (c *Cache) shardFor(id jid.ID) *shard {
	return &c.shards[id.Hash64()&c.mask]
}

// Observe records the ID and reports whether it is new: true means the
// caller sees this ID for the first time (within TTL) and should process
// the message; false means duplicate.
func (c *Cache) Observe(id jid.ID) bool {
	now := c.now().UnixNano()
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire(now, c.ttl)
	s.observed++
	if _, ok := s.byID[id]; ok {
		s.duplicates++
		return false
	}
	if s.byID == nil {
		s.byID = make(map[jid.ID]struct{}, min(c.shardCap, minShardCapacity))
	}
	for int(s.tail-s.head) >= c.shardCap {
		s.popOldest()
	}
	if int(s.tail-s.head) == len(s.ring) {
		s.grow(c.shardCap)
	}
	s.ring[s.tail&uint64(len(s.ring)-1)] = entry{id: id, at: now}
	s.tail++
	s.byID[id] = struct{}{}
	return true
}

// Seen reports whether the ID is currently remembered, without recording
// it.
func (c *Cache) Seen(id jid.ID) bool {
	now := c.now().UnixNano()
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire(now, c.ttl)
	_, ok := s.byID[id]
	return ok
}

// Stats is a snapshot of cache activity.
type Stats struct {
	Observed   int64 // Observe calls
	Duplicates int64 // Observe calls answered "already seen"
	Expired    int64 // entries dropped by TTL
	Evicted    int64 // entries dropped by capacity pressure
	Entries    int   // live entries right now
}

// Stats sums the shard counters into one snapshot. Like Len it expires
// stale entries as a side effect, so Entries is live occupancy.
func (c *Cache) Stats() Stats {
	now := c.now().UnixNano()
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.expire(now, c.ttl)
		st.Observed += s.observed
		st.Duplicates += s.duplicates
		st.Expired += s.expired
		st.Evicted += s.evicted
		st.Entries += int(s.tail - s.head)
		s.mu.Unlock()
	}
	return st
}

// Snapshot implements obs.Provider.
func (c *Cache) Snapshot() obs.Snapshot {
	st := c.Stats()
	return obs.Snapshot{
		Name:    "seen",
		Version: 1,
		Counters: map[string]int64{
			"observed":   st.Observed,
			"duplicates": st.Duplicates,
			"expired":    st.Expired,
			"evicted":    st.Evicted,
		},
		Gauges: map[string]float64{
			"entries": float64(st.Entries),
		},
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	now := c.now().UnixNano()
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.expire(now, c.ttl)
		total += int(s.tail - s.head)
		s.mu.Unlock()
	}
	return total
}

// expire drains the stale prefix of the ring. Entries are in arrival
// order, so the scan stops at the first live one; each entry is popped at
// most once in its lifetime, making expiry amortised O(1) per insert.
func (s *shard) expire(now, ttl int64) {
	for s.head != s.tail {
		e := &s.ring[s.head&uint64(len(s.ring)-1)]
		if now-e.at < ttl {
			return
		}
		delete(s.byID, e.id)
		s.head++
		s.expired++
	}
}

func (s *shard) popOldest() {
	if s.head == s.tail {
		return
	}
	e := &s.ring[s.head&uint64(len(s.ring)-1)]
	delete(s.byID, e.id)
	s.head++
	s.evicted++
}

// grow doubles the ring (bounded by shardCap rounded to a power of two),
// re-slotting live entries under the new mask.
func (s *shard) grow(shardCap int) {
	size := len(s.ring) * 2
	if size == 0 {
		size = initialRingSize
		for size > 1 && size/2 >= shardCap {
			size /= 2
		}
	}
	next := make([]entry, size)
	for seq := s.head; seq != s.tail; seq++ {
		next[seq&uint64(size-1)] = s.ring[seq&uint64(len(s.ring)-1)]
	}
	s.ring = next
}
