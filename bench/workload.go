package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"github.com/tps-p2p/tps/internal/core/codec"
)

// Event is the benchmark's event type: the paper's ski-rental offer plus
// a sequence number, the publisher's send stamp and a pad that sets the
// serialised size. It deliberately has no GobEncoder/BinaryMarshaler
// methods, so the codec does the work it does for an application type.
type Event struct {
	Seq         uint64
	SentNS      int64
	Shop, Brand string
	Price, Days float64
	Pad         []byte
}

// workload is one set of inputs the benchmark runs. The catalogue (and
// why each one exists) is in README.md; `why` is the one-line form that
// BENCHMARK.json repeats.
type workload struct {
	name string
	why  string
	subs int    // live subscribers
	size string // "2k" or "64b"
	w    int    // credit window: events in flight, gated by the slowest subscriber
	// durable gives every rendezvous a LogDir; replicated runs two
	// rendezvous that anti-entropy-sync behind the live traffic.
	durable, replicated bool
	// depth > 0 makes it the catch-up workload: depth events are
	// published to one live subscriber, then late joiners replay them.
	depth int
}

// catchupDepth is deliberately below the 1024-frame tcpnet queue: a
// deeper replay is shed silently (ROADMAP item 4(iii)) and a benchmark
// whose failed share is random cannot gate other changes.
const catchupDepth = 800

var workloads = []workload{
	{name: "fanout8_2k", subs: 8, size: "2k", w: 32,
		why: "1 publisher to 8 subscribers, 2 kB events, log off: rendezvous fan-out, frame encode and tcpnet copy+write dominate"},
	// W is 4, not the 1 the name suggests: with one event in flight both
	// cores idle between frames and the host's idle-state handling, not
	// the program, decides the result (README.md, Steadiness).
	{name: "pingpong1_64b", subs: 1, size: "64b", w: 4,
		why: "1 subscriber, 64 B pad, 4 events in flight: fixed per-hop cost dominates, payload copies vanish, batching should barely move it"},
	{name: "durable4_2k", subs: 4, size: "2k", w: 32, durable: true,
		why: "fan-out to 4 with the event log on: the rendezvous appends beside forwarding, so a fan-out gain bought by a slower append shows"},
	{name: "replicated4_2k", subs: 4, size: "2k", w: 32, durable: true, replicated: true,
		why: "two rendezvous replicas, failover clients: the tax anti-entropy pulls put on the live path of the active replica"},
	{name: "catchup800_2k", subs: 1, size: "2k", w: 32, durable: true, depth: catchupDepth,
		why: "late joiners one after another replay 800 retained events: eventlog read and replay serve, used by no live workload"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// padPool is how many distinct pads a run cycles through. Events share
// them (events are immutable once published), so the generator does no
// per-event payload work inside the timed window.
const padPool = 64

// payloads holds everything the seed decides: pad bytes and lengths and
// the constant offer fields. The same seed gives the same inputs.
type payloads struct {
	pads        [][]byte
	crcs        []uint32
	shop, brand string
	price, days float64
	blobMin     int // smallest and largest gob blob over the pool
	blobMax     int
}

// newPayloads draws the pads from the seed. For "2k" each pad is sized
// so the gob blob lands on 1910 ± 16 B (the paper's event size); for
// "64b" the pad itself is 64 ± 8 B — the blob is larger because every
// gob blob carries the type's descriptor, which is what that workload is
// there to expose.
func newPayloads(seed int64, size string) (*payloads, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &payloads{
		shop:  fmt.Sprintf("XTremShop-%04d", rng.Intn(10000)),
		brand: []string{"Salomon", "Rossignol", "Atomic", "Head"}[rng.Intn(4)],
		price: 10 + float64(rng.Intn(9000))/100,
		days:  float64(1 + rng.Intn(14)),
	}
	// Calibrate against a pad near the target: in that range every added
	// pad byte is one blob byte (the length prefixes do not change width).
	const probe = 1700
	probeBlob, err := p.blobLen(make([]byte, probe))
	if err != nil {
		return nil, err
	}
	for i := 0; i < padPool; i++ {
		var n int
		switch size {
		case "2k":
			n = probe + 1910 - probeBlob + rng.Intn(33) - 16
		case "64b":
			n = 64 + rng.Intn(17) - 8
		default:
			return nil, fmt.Errorf("unknown event size %q", size)
		}
		pad := make([]byte, n)
		rng.Read(pad)
		p.pads = append(p.pads, pad)
		p.crcs = append(p.crcs, crc32.ChecksumIEEE(pad))
		blob, err := p.blobLen(pad)
		if err != nil {
			return nil, err
		}
		if p.blobMin == 0 || blob < p.blobMin {
			p.blobMin = blob
		}
		if blob > p.blobMax {
			p.blobMax = blob
		}
	}
	return p, nil
}

func (p *payloads) blobLen(pad []byte) (int, error) {
	ev := p.event(1 << 20)
	ev.SentNS = 1 << 40
	ev.Pad = pad
	blob, err := codec.Gob{}.Encode(ev)
	return len(blob), err
}

// event builds the seq-th event; the caller stamps SentNS.
func (p *payloads) event(seq uint64) Event {
	ev := Event{Seq: seq, Shop: p.shop, Brand: p.brand, Price: p.price, Days: p.days}
	if len(p.pads) > 0 {
		ev.Pad = p.pads[seq%padPool]
	}
	return ev
}

// intact reports whether a delivered event is the one that was built
// for its sequence number.
func (p *payloads) intact(ev Event) bool {
	return ev.Shop == p.shop && ev.Brand == p.brand && ev.Price == p.price && ev.Days == p.days &&
		crc32.ChecksumIEEE(ev.Pad) == p.crcs[ev.Seq%padPool]
}
