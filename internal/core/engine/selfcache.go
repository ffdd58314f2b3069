package engine

import (
	"sync"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// publishedEvents remembers the values this peer recently published,
// keyed by event ID. Publish loops every published message back to the
// publisher's own reader (and the mesh may echo it), so
// without this cache a peer pays a full gob decode to receive an event
// whose decoded value it already holds — the dominant per-event cost on
// the local delivery path. onWireMessage consults the cache before
// decoding and dispatches the original value instead.
//
// Delivering the published value means local subscribers share it with
// the publisher rather than receiving a serialisation round-trip copy.
// TPS events are immutable by contract once published (callbacks filter
// and read them, §4.2), so sharing is observationally equivalent for
// conforming applications while skipping the decode entirely.
//
// The cache is a fixed-size FIFO ring: entries older than capacity fall
// out, which is far longer than the synchronous loopback they exist to
// serve; a miss just means a regular decode.
type publishedEvents struct {
	mu   sync.Mutex
	byID map[jid.ID]any
	ring []jid.ID // insertion order; evicted slot-for-slot once full
	next int
}

// publishedEventsCap bounds how many in-flight self-published values are
// retained. Loopback consumes an entry within the same Publish call;
// capacity beyond that only covers slow mesh echoes, which the dedupe
// layers drop anyway.
const publishedEventsCap = 128

func newPublishedEvents() *publishedEvents {
	return &publishedEvents{
		byID: make(map[jid.ID]any, publishedEventsCap),
		ring: make([]jid.ID, publishedEventsCap),
	}
}

// put records an outgoing event value, evicting the oldest entry once the
// ring is full.
func (p *publishedEvents) put(id jid.ID, value any) {
	p.mu.Lock()
	if old := p.ring[p.next]; !old.IsZero() {
		delete(p.byID, old)
	}
	p.ring[p.next] = id
	p.next = (p.next + 1) % len(p.ring)
	p.byID[id] = value
	p.mu.Unlock()
}

// get returns the published value for id and releases the entry. The
// engine's dedupe admits each event ID at most once before consulting
// this cache (even with several attached groups looping it back), so a
// hit is the entry's only possible reader; dropping it immediately keeps
// published values from outliving their delivery. The ring keeps the ID
// slot until capacity eviction, but that holds no payload — and events
// that never loop back (no local input pipe) age out the same way.
func (p *publishedEvents) get(id jid.ID) (any, bool) {
	p.mu.Lock()
	v, ok := p.byID[id]
	if ok {
		delete(p.byID, id)
	}
	p.mu.Unlock()
	return v, ok
}
