package trace

import (
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

func TestStampInfoRoundTrip(t *testing.T) {
	src := jid.NewPeer()
	ev := jid.NewMessage()
	msg := message.New(src)
	Stamp(msg, ev, 1234567890)

	got, sentUS, ok := Info(msg)
	if !ok {
		t.Fatal("Info did not find the trace element")
	}
	if got != ev {
		t.Fatalf("event ID = %v, want %v", got, ev)
	}
	if sentUS != 1234567890 {
		t.Fatalf("sentUS = %d, want 1234567890", sentUS)
	}

	// The element must survive the COW Dup used on every forward hop.
	dup := msg.Dup()
	dup.AddString("rdv", "Op", "prop") // forwarding-style mutation
	if got2, _, ok := Info(dup); !ok || got2 != ev {
		t.Fatalf("trace element lost across Dup+mutate: ok=%v id=%v", ok, got2)
	}
}

func TestInfoRejectsMalformed(t *testing.T) {
	msg := message.New(jid.NewPeer())
	if _, _, ok := Info(msg); ok {
		t.Fatal("Info matched an unstamped message")
	}
	msg.AddBytes(ElemNS, ElemName, []byte{9, 9, 9})
	if _, _, ok := Info(msg); ok {
		t.Fatal("Info matched a short payload")
	}
	bad := message.New(jid.NewPeer())
	data := make([]byte, payloadSize)
	data[0] = 99 // unknown version
	bad.AddBytes(ElemNS, ElemName, data)
	if _, _, ok := Info(bad); ok {
		t.Fatal("Info matched an unknown version")
	}
}

// The receive-side probe runs on every delivered message, traced or
// not, so it must be allocation-free on the common (unstamped) case —
// and on the stamped case too.
func TestInfoAllocFree(t *testing.T) {
	plain := message.New(jid.NewPeer())
	plain.AddString("tps", "Codec", "gob")
	stamped := message.New(jid.NewPeer())
	Stamp(stamped, jid.NewMessage(), 42)

	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := Info(plain); ok {
			t.Error("unexpected match")
		}
	}); allocs != 0 {
		t.Fatalf("Info on unstamped message: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := Info(stamped); !ok {
			t.Error("expected match")
		}
	}); allocs != 0 {
		t.Fatalf("Info on stamped message: %v allocs/op, want 0", allocs)
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Enabled() || NewSampler(-1).Enabled() {
		t.Fatal("rate <= 0 must disable sampling")
	}
	all := NewSampler(1)
	none := NewSampler(0)
	half := NewSampler(0.5)
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		ev := jid.NewMessage()
		if !all.Sample(ev) {
			t.Fatal("rate 1 must sample everything")
		}
		if none.Sample(ev) {
			t.Fatal("rate 0 must sample nothing")
		}
		if half.Sample(ev) {
			hits++
		}
		// Determinism: the same event gives the same answer every time.
		if half.Sample(ev) != half.Sample(ev) {
			t.Fatal("sampler is not deterministic")
		}
	}
	if hits < n/4 || hits > 3*n/4 {
		t.Fatalf("rate 0.5 sampled %d/%d events", hits, n)
	}
	// Sampling must be allocation-free: it runs per publish.
	ev := jid.NewMessage()
	if allocs := testing.AllocsPerRun(500, func() { half.Sample(ev) }); allocs != 0 {
		t.Fatalf("Sample: %v allocs/op, want 0", allocs)
	}
}

func TestStoreRecordAndEvict(t *testing.T) {
	s := NewStore(2)
	base := time.UnixMicro(1_000_000)
	tick := 0
	s.SetClock(func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Millisecond) })

	peer := jid.NewPeer()
	ev1, ev2, ev3 := jid.NewMessage(), jid.NewMessage(), jid.NewMessage()
	s.Record(ev1, StagePublish, peer, 10, nil)
	s.Record(ev1, StageDeliver, peer, 10, []jid.ID{peer})
	s.Record(ev2, StagePublish, peer, 20, nil)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	// Third event evicts the oldest (ev1).
	s.Record(ev3, StagePublish, peer, 30, nil)
	if s.Len() != 2 {
		t.Fatalf("len after evict = %d, want 2", s.Len())
	}
	if got := s.Hops(ev1.String()); got != nil {
		t.Fatalf("evicted event still present: %v", got)
	}
	hops := s.Hops(ev2.String())
	if len(hops) != 1 || hops[0].Stage != StagePublish || hops[0].SentUS != 20 {
		t.Fatalf("ev2 hops = %+v", hops)
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0].EventID != ev2.String() || evs[1].EventID != ev3.String() {
		t.Fatalf("events = %+v", evs)
	}
	if s.Hops("not-a-urn") != nil {
		t.Fatal("bad URN should return nil")
	}
	// Zero event IDs are ignored.
	s.Record(jid.Nil, StagePublish, peer, 0, nil)
	if s.Len() != 2 {
		t.Fatal("nil event was recorded")
	}
}

func TestStoreHopCap(t *testing.T) {
	s := NewStore(4)
	ev, peer := jid.NewMessage(), jid.NewPeer()
	for i := 0; i < maxHopsPerEvent*2; i++ {
		s.Record(ev, StageForward, peer, 0, nil)
	}
	if n := len(s.Hops(ev.String())); n != maxHopsPerEvent {
		t.Fatalf("hops = %d, want cap %d", n, maxHopsPerEvent)
	}
}

func TestAssemble(t *testing.T) {
	ev := jid.NewMessage().String()
	pub, rdv, sub := jid.NewPeer().String(), jid.NewPeer().String(), jid.NewPeer().String()
	hops := []Hop{
		// Out of order, with a duplicate forward (two attachments) and a
		// publish whose clock reads later than the relay's (skew).
		{EventID: ev, Peer: sub, Stage: StageDeliver, AtUS: 400, SentUS: 100},
		{EventID: ev, Peer: rdv, Stage: StageForward, AtUS: 250},
		{EventID: ev, Peer: rdv, Stage: StageForward, AtUS: 200},
		{EventID: ev, Peer: pub, Stage: StagePublish, AtUS: 300, SentUS: 100},
		{EventID: "urn:other", Peer: pub, Stage: StagePublish, AtUS: 1},
	}
	tr := Assemble(ev, hops)
	if tr.EventID != ev || tr.SentUS != 100 {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Hops) != 3 {
		t.Fatalf("hops = %+v, want 3 (dedup + foreign filter)", tr.Hops)
	}
	if tr.Hops[0].Stage != StagePublish || tr.Hops[0].Peer != pub {
		t.Fatalf("first hop = %+v, want publish despite clock skew", tr.Hops[0])
	}
	if tr.Hops[1].Stage != StageForward || tr.Hops[1].AtUS != 200 {
		t.Fatalf("second hop = %+v, want earliest forward", tr.Hops[1])
	}
	if tr.Hops[2].Stage != StageDeliver || tr.Hops[2].Peer != sub {
		t.Fatalf("third hop = %+v", tr.Hops[2])
	}
}

// TestSamplerOverNumberedIDs: the IDs of one stream differ in a counter
// alone, and Hash64 mixes it, so 10 000 consecutive ones sampled at
// rate 0.01 land within the binomial bounds (mean 100, σ ≈ 9.95; ±5σ),
// and two samplers of one rate agree on every one.
func TestSamplerOverNumberedIDs(t *testing.T) {
	a, b := NewSampler(0.01), NewSampler(0.01)
	const n = 10_000
	stream := jid.NewStream()
	hits := 0
	for seq := uint64(1); seq <= n; seq++ {
		id := jid.NumberedMessage(stream, seq)
		got := a.Sample(id)
		if got != b.Sample(id) {
			t.Fatalf("two samplers disagree on sequence %d", seq)
		}
		if got {
			hits++
		}
	}
	if hits < 50 || hits > 150 {
		t.Fatalf("rate 0.01 sampled %d of %d consecutive IDs of one stream, want 50..150", hits, n)
	}
}
