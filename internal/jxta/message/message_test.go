package message

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/tps-p2p/tps/internal/israce"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

func testMsg() *Message {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddString("jxta", "service", "discovery")
	m.AddBytes("app", "payload", []byte{0, 1, 2, 3, 255})
	m.AddElement(Element{Namespace: "wire", Name: "seq", MimeType: "text/plain", Data: []byte("42")})
	return m
}

func TestNewDefaults(t *testing.T) {
	src := jid.FromSeed(jid.KindPeer, 7)
	m := New(src)
	if m.Src != src {
		t.Fatalf("Src = %v", m.Src)
	}
	if m.TTL != DefaultTTL {
		t.Fatalf("TTL = %d", m.TTL)
	}
	if m.ID != jid.Nil {
		t.Fatalf("ID = %v: New draws none, its sender gives one", m.ID)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestElementAccess(t *testing.T) {
	m := testMsg()
	e, ok := m.Element("jxta", "service")
	if !ok || string(e.Data) != "discovery" {
		t.Fatalf("Element = %+v, %v", e, ok)
	}
	if _, ok := m.Element("jxta", "absent"); ok {
		t.Fatal("found absent element")
	}
	if _, ok := m.Element("absent", "service"); ok {
		t.Fatal("namespace not honoured")
	}
	if got := m.Text("wire", "seq"); got != "42" {
		t.Fatalf("Text = %q", got)
	}
	if got := m.Text("wire", "nope"); got != "" {
		t.Fatalf("Text(absent) = %q", got)
	}
	if got := m.Bytes("app", "payload"); !bytes.Equal(got, []byte{0, 1, 2, 3, 255}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := m.Bytes("app", "nope"); got != nil {
		t.Fatalf("Bytes(absent) = %v", got)
	}
	if e.Key() != "jxta:service" {
		t.Fatalf("Key = %q", e.Key())
	}
}

func TestReplaceAndRemove(t *testing.T) {
	m := testMsg()
	m.ReplaceElement(Element{Namespace: "wire", Name: "seq", Data: []byte("43")})
	if got := string(m.Bytes("wire", "seq")); got != "43" {
		t.Fatalf("after replace: %q", got)
	}
	if m.Len() != 3 {
		t.Fatalf("replace added element: Len=%d", m.Len())
	}
	m.ReplaceElement(Element{Namespace: "wire", Name: "new", Data: []byte("x")})
	if m.Len() != 4 {
		t.Fatal("replace of absent did not append")
	}
	if !m.RemoveElement("wire", "new") {
		t.Fatal("remove existing returned false")
	}
	if m.RemoveElement("wire", "new") {
		t.Fatal("remove absent returned true")
	}
	if m.Len() != 3 {
		t.Fatalf("Len after remove = %d", m.Len())
	}
}

func TestElementsIsCopy(t *testing.T) {
	m := testMsg()
	els := m.Elements()
	els[0].Name = "mutated"
	if _, ok := m.Element("jxta", "service"); !ok {
		t.Fatal("mutating Elements() result affected message")
	}
}

func TestStampAndVisited(t *testing.T) {
	m := testMsg()
	p1 := jid.FromSeed(jid.KindPeer, 11)
	p2 := jid.FromSeed(jid.KindPeer, 12)
	if m.Visited(p1) {
		t.Fatal("fresh message claims visit")
	}
	if !m.Stamp(p1) {
		t.Fatal("first stamp failed")
	}
	if m.TTL != DefaultTTL-1 {
		t.Fatalf("TTL = %d", m.TTL)
	}
	if !m.Visited(p1) {
		t.Fatal("Visited false after stamp")
	}
	if m.Stamp(p1) {
		t.Fatal("re-stamp by same peer allowed")
	}
	m.TTL = 0
	if m.Stamp(p2) {
		t.Fatal("stamp allowed with TTL 0")
	}
}

func TestDupIsIndependent(t *testing.T) {
	m := testMsg()
	m.Stamp(jid.FromSeed(jid.KindPeer, 9))
	d := m.Dup()
	if d.ID != m.ID {
		t.Fatal("Dup changed message ID")
	}
	if !reflect.DeepEqual(d.Elements(), m.Elements()) {
		t.Fatal("Dup elements differ")
	}
	// Payload bytes are intentionally shared read-only between a message
	// and its Dups; independence holds for every mutator.
	d.ReplaceElement(Element{Namespace: "app", Name: "payload", Data: []byte{99}})
	if m.Bytes("app", "payload")[0] == 99 {
		t.Fatal("ReplaceElement on dup leaked into original")
	}
	d.Path[0] = jid.FromSeed(jid.KindPeer, 1000)
	if m.Path[0] == d.Path[0] {
		t.Fatal("Dup shares path slice")
	}
}

// TestDupCopyOnWrite pins the COW contract element-by-element: every
// mutator on any copy leaves the original and all sibling copies exactly
// as they were.
func TestDupCopyOnWrite(t *testing.T) {
	m := testMsg()
	before := m.Elements()

	d1, d2 := m.Dup(), m.Dup()
	d1.ReplaceElement(Element{Namespace: "wire", Name: "seq", Data: []byte("changed")})
	d2.AddElement(Element{Namespace: "x", Name: "extra", Data: []byte("e")})
	if !reflect.DeepEqual(m.Elements(), before) {
		t.Fatal("mutating dups changed the original")
	}
	if string(d2.Bytes("wire", "seq")) != "42" {
		t.Fatal("d1's ReplaceElement leaked into sibling d2")
	}
	if _, ok := d1.Element("x", "extra"); ok {
		t.Fatal("d2's AddElement leaked into sibling d1")
	}

	// Mutating the ORIGINAL after Dup must not leak into live copies.
	d3 := m.Dup()
	m.RemoveElement("app", "payload")
	if d3.Bytes("app", "payload") == nil {
		t.Fatal("RemoveElement on original leaked into dup")
	}
	m.AddElement(Element{Namespace: "y", Name: "late", Data: []byte("l")})
	if _, ok := d3.Element("y", "late"); ok {
		t.Fatal("AddElement on original leaked into dup")
	}
}

// TestDupStampIndependent verifies per-hop path state stays private: a
// forwarding hop stamping its copy never alters the sender's path, and
// sibling hops stamping concurrently-shaped copies do not see each other.
func TestDupStampIndependent(t *testing.T) {
	m := testMsg()
	m.Stamp(jid.FromSeed(jid.KindPeer, 1))
	f1, f2 := m.Dup(), m.Dup()
	if !f1.Stamp(jid.FromSeed(jid.KindPeer, 2)) || !f2.Stamp(jid.FromSeed(jid.KindPeer, 3)) {
		t.Fatal("stamp on dup failed")
	}
	if len(m.Path) != 1 {
		t.Fatalf("original path grew: %v", m.Path)
	}
	if f1.Visited(jid.FromSeed(jid.KindPeer, 3)) || f2.Visited(jid.FromSeed(jid.KindPeer, 2)) {
		t.Fatal("sibling stamps aliased")
	}
	if m.TTL != DefaultTTL-1 || f1.TTL != DefaultTTL-2 {
		t.Fatalf("TTL not per-copy: m=%d f1=%d", m.TTL, f1.TTL)
	}
}

// TestDupStampNoRealloc pins the path pre-sizing: once a dup's path has
// been allocated by its first Stamp, a full-TTL traversal appends in
// place.
func TestDupStampNoRealloc(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	if !m.Stamp(jid.FromSeed(jid.KindPeer, 2)) {
		t.Fatal("first stamp failed")
	}
	base := &m.Path[0]
	for i := 0; m.TTL > 0; i++ {
		if !m.Stamp(jid.FromSeed(jid.KindPeer, uint64(10+i))) {
			t.Fatal("stamp within TTL failed")
		}
	}
	if &m.Path[0] != base {
		t.Fatal("full-TTL traversal reallocated the path")
	}
	if len(m.Path) != DefaultTTL {
		t.Fatalf("path length %d, want %d", len(m.Path), DefaultTTL)
	}
}

// TestConcurrentFanOutMutation is the -race aliasing gate: one published
// message fans out to many goroutines, each Dup-ing its own envelope and
// rewriting the pipe-ID element plus stamping, exactly like the
// wire→rendezvous path does per hop. No mutation may reach a sibling or
// the publisher's message.
func TestConcurrentFanOutMutation(t *testing.T) {
	m := testMsg()
	m.AddElement(Element{Namespace: "wire", Name: "ID", Data: []byte("original")})
	// All Dups are taken sequentially (the ownership contract), the
	// mutations then race against concurrent readers of the original.
	const fan = 16
	dups := make([]*Message, fan)
	for i := range dups {
		dups[i] = m.Dup()
	}
	var wg sync.WaitGroup
	for i, d := range dups {
		wg.Add(1)
		go func(i int, d *Message) {
			defer wg.Done()
			d.ReplaceElement(Element{Namespace: "wire", Name: "ID", Data: []byte{byte(i)}})
			d.Stamp(jid.FromSeed(jid.KindPeer, uint64(100+i)))
			if got := d.Bytes("wire", "ID"); len(got) != 1 || got[0] != byte(i) {
				t.Errorf("dup %d sees foreign pipe ID %v", i, got)
			}
		}(i, d)
	}
	// Concurrent readers of the shared original while siblings mutate.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if got := string(m.Bytes("wire", "ID")); got != "original" {
					t.Errorf("publisher's message mutated: %q", got)
				}
			}
		}()
	}
	wg.Wait()
	for i, d := range dups {
		if got := d.Bytes("wire", "ID"); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("after join, dup %d has pipe ID %v", i, got)
		}
		if len(d.Path) != 1 {
			t.Fatalf("dup %d path %v", i, d.Path)
		}
	}
	if got := string(m.Bytes("wire", "ID")); got != "original" {
		t.Fatalf("publisher's message mutated: %q", got)
	}
	if len(m.Path) != 0 {
		t.Fatalf("publisher's path grew: %v", m.Path)
	}
}

// TestDupAllocBudget keeps Dup O(1): duplicating a message with a
// multi-kilobyte payload and stamping the copy must cost one block —
// header and path, with the room the Stamp takes — whether the original
// has a path yet or not, and never a payload copy.
func TestDupAllocBudget(t *testing.T) {
	hop := jid.FromSeed(jid.KindPeer, 3)
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddBytes("bench", "payload", make([]byte, 1910))
	for _, stamped := range []bool{false, true} {
		if stamped {
			m.Stamp(jid.FromSeed(jid.KindPeer, 2))
		}
		allocs := testing.AllocsPerRun(200, func() {
			sink = m.Dup()
			if !sink.Stamp(hop) {
				t.Fatal("copy refused the stamp")
			}
		})
		if allocs > 1 {
			t.Errorf("Dup + Stamp allocate %.1f/op (original stamped: %v), budget is 1", allocs, stamped)
		}
		if want := len(m.Path) + 1; len(sink.Path) != want || sink.Path[want-1] != hop || m.Visited(hop) {
			t.Errorf("copy's path %v, original's %v", sink.Path, m.Path)
		}
	}
	// A TTL beyond the default does not fit the block: it must still work.
	m.TTL = 200
	d := m.Dup()
	for i := 0; i < 20; i++ {
		if !d.Stamp(jid.FromSeed(jid.KindPeer, uint64(100+i))) {
			t.Fatalf("stamp %d refused", i)
		}
	}
	if len(d.Path) != 21 || len(m.Path) != 1 {
		t.Fatalf("long path: copy %d hops, original %d", len(d.Path), len(m.Path))
	}
}

// TestNewAllocBudget: an event message as the engine builds it — New,
// the event ID and the data, and a trace element on a sampled event —
// and sends it — Propagate's Stamp and its three elements — is one
// block: the ID's payload, the path and the elements are written into
// room the block has for them, and so is a blob an encoder writes into
// the payload room; a larger payload, and the other payloads, are the
// caller's.
func TestNewAllocBudget(t *testing.T) {
	src, ev := jid.FromSeed(jid.KindPeer, 1), jid.FromSeed(jid.KindMessage, 2)
	blob, stamp := make([]byte, 1910), make([]byte, 26)
	build := func() *Message {
		m := New(src)
		m.AddID("tps", "EventID", ev)
		m.AddBytes("tps", "Data", blob)
		m.AddElement(Element{Namespace: "trc", Name: "Ev", MimeType: "application/x-tps-trace", Data: stamp})
		return m
	}
	if allocs := testing.AllocsPerRun(200, func() { sink = build() }); allocs > 1 {
		t.Errorf("New + three Adds allocate %.1f/op, budget is 1", allocs)
	}
	hop, small := jid.FromSeed(jid.KindPeer, 5), bytes.Repeat([]byte{'x'}, 184)
	if New(src).Path != nil {
		t.Fatal("a new message has a path before its first Stamp")
	}
	sent := func() *Message {
		m := New(src)
		m.AddID("tps", "EventID", ev)
		m.AddBytes("tps", "Data", append(m.PayloadRoom(), small...))
		m.AddElement(Element{Namespace: "trc", Name: "Ev", MimeType: "application/x-tps-trace", Data: stamp})
		if !m.Stamp(hop) {
			t.Fatal("a new message refused its first Stamp")
		}
		for _, name := range []string{"Op", "DSvc", "DParam"} {
			m.ReplaceText("rdv", name, name)
		}
		return m
	}
	if allocs := testing.AllocsPerRun(200, func() { sink = sent() }); allocs > 1 && !israce.Enabled {
		t.Errorf("New, three Adds with the blob in the payload room, a Stamp and three ReplaceTexts allocate %.1f/op, budget is 1", allocs)
	}
	if m := sent(); !bytes.Equal(m.Bytes("tps", "Data"), small) || m.Len() != 6 || len(m.Path) != 1 || m.Path[0] != hop || m.PayloadRoom() != nil {
		t.Fatalf("sent message reads %v, path %v", m.Elements(), m.Path)
	}
	if room := New(src).PayloadRoom(); len(room) != 0 || cap(room) != payloadRoomSize {
		t.Fatalf("payload room has length %d, capacity %d", len(room), cap(room))
	}
	if (&Message{}).PayloadRoom() != nil || New(src).Dup().PayloadRoom() != nil {
		t.Fatal("a message New did not build hands out a payload room")
	}
	m := build()
	if got, err := m.GetID("tps", "EventID"); err != nil || got != ev || len(m.Bytes("tps", "Data")) != len(blob) || m.Len() != 3 {
		t.Fatalf("built message reads %v", m.Elements())
	}
	// The second ID takes the rest of the ID room, the third a payload
	// of its own; an append to one cannot write into the next.
	second, third := jid.FromSeed(jid.KindPeer, 3), jid.FromSeed(jid.KindPeer, 4)
	m.AddID("app", "second", second)
	m.AddID("app", "third", third)
	for _, id := range []struct{ ns, name string }{{"tps", "EventID"}, {"app", "second"}, {"app", "third"}} {
		if e, _ := m.Element(id.ns, id.name); cap(e.Data) != jid.WireSize {
			t.Fatalf("%s's payload has capacity %d behind its %d bytes: an append would write into its neighbour", id.name, cap(e.Data), len(e.Data))
		}
	}
	if d := build().Dup(); len(d.small) != 0 {
		t.Fatalf("a Dup has %d bytes of its original's small room", len(d.small))
	}
	// The ninth element leaves the block; the first eight stay readable.
	for i := 0; i < 4; i++ {
		m.AddUint64("app", string(rune('a'+i)), uint64(i))
	}
	got2, err2 := m.GetID("app", "second")
	got3, err3 := m.GetID("app", "third")
	if v, ok := m.Uint64("app", "d"); m.Len() != 9 || !ok || v != 3 || err2 != nil || got2 != second || err3 != nil || got3 != third {
		t.Fatalf("grown message reads %v", m.Elements())
	}
	if got, err := m.GetID("tps", "EventID"); err != nil || got != ev {
		t.Fatalf("event ID reads %v, %v after the second and third IDs", got, err)
	}
}

var sink *Message

// TestDecodedStampAllocBudget: the two stamps a durable rendezvous
// writes onto a message it logs — its log sequence (ReplaceUint64) and
// its ID (ReplaceID) — go into room Unmarshal's block has for them, not
// into the frame, so a received message that is logged and forwarded is
// still one block. A Dup has no room and pays for its payloads.
func TestDecodedStampAllocBudget(t *testing.T) {
	src, self := jid.FromSeed(jid.KindPeer, 1), jid.FromSeed(jid.KindPeer, 2)
	m := New(src)
	m.AddID("tps", "EventID", jid.FromSeed(jid.KindMessage, 3))
	m.AddBytes("tps", "Data", make([]byte, 100))
	m.Stamp(src)
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(frame)
	stamp := func(m *Message) {
		m.ReplaceUint64("rdv", "Seq", 42)
		m.ReplaceID("rdv", "LogSrc", self)
	}
	// Under the race detector Unmarshal allocates on its own.
	if allocs := testing.AllocsPerRun(200, func() {
		d, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		stamp(d)
		sink = d
	}); allocs > 1 && !israce.Enabled {
		t.Errorf("Unmarshal and the two log stamps allocate %.1f/op, budget is 1 (the block; 2.5 with the stamps' payloads apart)", allocs)
	}
	d, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	dup := d.Dup()
	for _, m := range []*Message{d, dup} {
		stamp(m)
		seq, ok := m.Uint64("rdv", "Seq")
		logSrc, err := m.GetID("rdv", "LogSrc")
		if !ok || seq != 42 || err != nil || logSrc != self || m.Len() != 4 {
			t.Fatalf("stamped message reads %v", m.Elements())
		}
		for _, name := range []string{"Seq", "LogSrc"} {
			if e, _ := m.Element("rdv", name); cap(e.Data) != len(e.Data) {
				t.Fatalf("rdv:%s has capacity %d behind its %d bytes", name, cap(e.Data), len(e.Data))
			}
		}
	}
	if !bytes.Equal(frame, pristine) {
		t.Fatal("stamping a decoded message wrote into its frame")
	}
}

// TestTextOutlivesMutation pins what lets Text alias the payload: a
// string read from a message stays what it was when that message, or a
// Dup of it, replaces or removes the element — mutators swap element
// headers and never write into a payload.
func TestTextOutlivesMutation(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddString("ep", "DstSvc", "jxta.rdv")
	m.AddString("rdv", "Op", "prop")
	svc, op := m.Text("ep", "DstSvc"), m.Text("rdv", "Op")
	d := m.Dup()
	d.ReplaceElement(Element{Namespace: "ep", Name: "DstSvc", Data: []byte("other.svc")})
	m.ReplaceElement(Element{Namespace: "rdv", Name: "Op", Data: []byte("lease")})
	m.RemoveElement("ep", "DstSvc")
	if svc != "jxta.rdv" || op != "prop" {
		t.Fatalf("strings read before the mutations now read %q, %q", svc, op)
	}
	if got := d.Text("ep", "DstSvc"); got != "other.svc" {
		t.Fatalf("replaced element reads %q", got)
	}
	if got := m.Text("ep", "DstSvc"); got != "" {
		t.Fatalf("absent element reads %q, want the empty string", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := testMsg()
	m.Stamp(jid.FromSeed(jid.KindPeer, 2))
	m.Stamp(jid.FromSeed(jid.KindPeer, 3))
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != m.WireSize() {
		t.Fatalf("frame len %d != WireSize %d", len(frame), m.WireSize())
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Src != m.Src || got.TTL != m.TTL {
		t.Fatalf("envelope mismatch: %+v vs %+v", got, m)
	}
	if !reflect.DeepEqual(got.Path, m.Path) {
		t.Fatalf("path mismatch: %v vs %v", got.Path, m.Path)
	}
	if !reflect.DeepEqual(got.Elements(), m.Elements()) {
		t.Fatal("elements mismatch")
	}
}

func TestMarshalEmptyMessage(t *testing.T) {
	m := New(jid.Nil)
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || !got.Src.IsZero() {
		t.Fatalf("got %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	m := testMsg()
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[0] = 'X'
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[4] = 99
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(frame); cut += 7 {
			if _, err := Unmarshal(frame[:len(frame)-cut]); err == nil {
				t.Fatalf("truncated frame (cut %d) decoded", cut)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), frame...), 0xEE)
		if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Unmarshal(nil); err == nil {
			t.Fatal("nil frame decoded")
		}
	})
}

func TestValidateLimits(t *testing.T) {
	m := New(jid.Nil)
	m.AddElement(Element{Namespace: strings.Repeat("n", 300), Name: "x"})
	if err := m.Validate(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("long namespace: %v", err)
	}

	m = New(jid.Nil)
	for i := 0; i <= MaxElements; i++ {
		m.AddBytes("a", "b", nil)
	}
	if err := m.Validate(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too many elements: %v", err)
	}

	m = New(jid.Nil)
	m.Path = make([]jid.ID, MaxPathLen+1)
	if err := m.Validate(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("long path: %v", err)
	}
	if _, err := m.Marshal(); err == nil {
		t.Fatal("Marshal accepted invalid message")
	}
}

// elementsEquivalent compares element lists treating nil and empty
// payloads as equal: the wire format cannot distinguish them.
func elementsEquivalent(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Namespace != b[i].Namespace || a[i].Name != b[i].Name ||
			a[i].MimeType != b[i].MimeType || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// Property: arbitrary messages survive a Marshal/Unmarshal round trip.
func TestQuickCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(srcSeed uint64, ttl uint8, nElems uint8, payload []byte) bool {
		m := New(jid.FromSeed(jid.KindPeer, srcSeed))
		m.TTL = ttl
		for i := 0; i < int(nElems%16); i++ {
			m.AddElement(Element{
				Namespace: "ns" + string(rune('a'+i%3)),
				Name:      "el" + string(rune('a'+i%5)),
				MimeType:  "application/test",
				Data:      payload,
			})
		}
		for i := 0; i < rng.Intn(4); i++ {
			m.Path = append(m.Path, jid.FromSeed(jid.KindPeer, uint64(i)))
		}
		frame, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		return got.ID == m.ID && got.Src == m.Src && got.TTL == m.TTL &&
			elementsEquivalent(got.Elements(), m.Elements()) &&
			reflect.DeepEqual(got.Path, m.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshalNeverWritesTheFrame holds the package to the rule the
// receive path depends on: a decoded message is cut out of its frame,
// which a transport has given away and which any number of messages,
// Dups, Text strings and forwarded copies may share from then on — so
// nothing the package offers may write a byte of it. Whatever bytes
// decode, they are unchanged after every mutator has run on the message
// and on a Dup of it, an append to any payload lands elsewhere, and a
// Dup taken before the mutations still marshals to the frame.
func FuzzUnmarshalNeverWritesTheFrame(f *testing.F) {
	seed, err := testMsg().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	stamped := testMsg()
	stamped.Stamp(jid.FromSeed(jid.KindPeer, 2))
	stamped.AddBytes("app", "empty", nil)
	if seed, err = stamped.Marshal(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, frame []byte) {
		want := bytes.Clone(frame)
		m, err := Unmarshal(frame)
		if err != nil {
			if !bytes.Equal(frame, want) {
				t.Fatalf("a refused frame was written:\n got %x\nwant %x", frame, want)
			}
			return
		}
		before := m.Dup()
		for _, e := range m.Elements() {
			if grown := append(e.Data, "overrun"...); len(e.Data) > 0 && &grown[0] == &e.Data[0] {
				t.Fatalf("append grew the payload of %s in place, over the frame behind it", e.Key())
			}
		}
		m.Stamp(jid.FromSeed(jid.KindPeer, 99))
		d := m.Dup()
		for _, e := range m.Elements() {
			d.ReplaceElement(Element{Namespace: e.Namespace, Name: e.Name, Data: []byte("replaced")})
			m.ReplaceText(e.Namespace, e.Name, "replaced too")
			d.RemoveElement(e.Namespace, e.Name)
		}
		m.AddString("app", "added", "behind the decoded elements")
		d.Stamp(jid.FromSeed(jid.KindPeer, 98))
		if !bytes.Equal(frame, want) {
			t.Fatalf("the frame was written:\n got %x\nwant %x", frame, want)
		}
		got, err := before.Marshal()
		if err != nil {
			t.Fatalf("decoded message does not marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("a copy taken before the mutations changed under them:\n got %x\nwant %x", got, want)
		}
	})
}

// TestUnmarshalElementRoom: up to thirteen element headers live in the
// block Unmarshal allocates, a fourteenth moves them all to a slice of
// their own; either way the message reads back whole, takes the hops its
// TTL allows and grows by an element without losing one.
func TestUnmarshalElementRoom(t *testing.T) {
	for _, n := range []int{0, 12, 13, 14, 15, 40} {
		m := New(jid.FromSeed(jid.KindPeer, 1))
		m.Stamp(jid.FromSeed(jid.KindPeer, 2))
		for i := 0; i < n; i++ {
			m.AddBytes("app", string(rune('a'+i)), bytes.Repeat([]byte{byte(i)}, 10*i))
		}
		frame, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !elementsEquivalent(got.Elements(), m.Elements()) || !reflect.DeepEqual(got.Path, m.Path) {
			t.Fatalf("%d elements: decoded %v, path %v", n, got.Elements(), got.Path)
		}
		m.AddString("app", "more", "one more")
		got.AddString("app", "more", "one more")
		if !got.Stamp(jid.FromSeed(jid.KindPeer, 3)) || !m.Stamp(jid.FromSeed(jid.KindPeer, 3)) {
			t.Fatalf("%d elements: stamp refused", n)
		}
		if !elementsEquivalent(got.Elements(), m.Elements()) || !reflect.DeepEqual(got.Path, m.Path) {
			t.Fatalf("%d elements: after an Add and a Stamp %v, path %v", n, got.Elements(), got.Path)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddBytes("bench", "payload", bytes.Repeat([]byte{0xAB}, 1910)) // paper's message size
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddBytes("bench", "payload", bytes.Repeat([]byte{0xAB}, 1910))
	frame, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAddGetIDRoundTrip(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	want := jid.FromSeed(jid.KindPipe, 42)
	m.AddID("tps", "EventID", want)
	e, ok := m.Element("tps", "EventID")
	if !ok {
		t.Fatal("element missing")
	}
	if len(e.Data) != jid.WireSize {
		t.Fatalf("binary ID element is %d bytes, want %d", len(e.Data), jid.WireSize)
	}
	got, err := m.GetID("tps", "EventID")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestReplaceIDReplaces(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	m.AddID("wire", "ID", jid.FromSeed(jid.KindPipe, 1))
	m.ReplaceID("wire", "ID", jid.FromSeed(jid.KindPipe, 2))
	if m.Len() != 1 {
		t.Fatalf("ReplaceID appended instead of replacing: %d elements", m.Len())
	}
	got, err := m.GetID("wire", "ID")
	if err != nil {
		t.Fatal(err)
	}
	if got != jid.FromSeed(jid.KindPipe, 2) {
		t.Fatalf("got %v", got)
	}
}

func TestAddUint64RoundTrip(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	for _, v := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		m.RemoveElement("rdv", "Cursor")
		m.AddUint64("rdv", "Cursor", v)
		if e, _ := m.Element("rdv", "Cursor"); len(e.Data) != 8 {
			t.Fatalf("numeric element is %d bytes, want 8", len(e.Data))
		}
		if got, ok := m.Uint64("rdv", "Cursor"); !ok || got != v {
			t.Fatalf("Uint64 = %d, %v; want %d", got, ok, v)
		}
	}
	// Anything but exactly eight bytes is not a number — in particular
	// not zero, which the replay protocol reads as "everything retained".
	for _, bad := range [][]byte{nil, {}, []byte("1234567"), []byte("123456789"), []byte("42")} {
		m.ReplaceElement(Element{Namespace: "rdv", Name: "Cursor", Data: bad})
		if got, ok := m.Uint64("rdv", "Cursor"); ok {
			t.Fatalf("%d-byte element decoded as %d", len(bad), got)
		}
	}
	if _, ok := m.Uint64("rdv", "absent"); ok {
		t.Fatal("absent element decoded")
	}
}

func TestGetIDErrors(t *testing.T) {
	m := New(jid.FromSeed(jid.KindPeer, 1))
	if _, err := m.GetID("tps", "absent"); err == nil {
		t.Fatal("missing element must error")
	}
	m.AddBytes("tps", "junk", []byte("not an id"))
	if _, err := m.GetID("tps", "junk"); err == nil {
		t.Fatal("malformed payload must error")
	}
	bad := make([]byte, jid.WireSize)
	bad[0] = 0xEE // invalid kind byte, non-zero uuid
	bad[1] = 1
	m.AddBytes("tps", "badkind", bad)
	if _, err := m.GetID("tps", "badkind"); err == nil {
		t.Fatal("invalid kind byte must error")
	}
}

// TestWireCompatGoldenFrame builds a frame byte-for-byte to the layout
// documented in codec.go — the layout frames had before the binary ID
// fast path — and asserts both directions: Unmarshal decodes it, and
// Marshal still produces exactly those bytes. The binary ID change is an
// implementation detail; the wire format must not move.
func TestWireCompatGoldenFrame(t *testing.T) {
	src := jid.FromSeed(jid.KindPeer, 3)
	hop := jid.FromSeed(jid.KindPeer, 4)
	msgID := jid.FromSeed(jid.KindMessage, 5)

	putID := func(buf []byte, id jid.ID) []byte {
		buf = append(buf, byte(id.Kind()))
		u := id.UUID()
		return append(buf, u[:]...)
	}
	var golden []byte
	golden = append(golden, 'J', 'X', 'M', '1') // magic
	golden = append(golden, 1)                  // version
	golden = putID(golden, msgID)
	golden = putID(golden, src)
	golden = append(golden, 6)    // ttl
	golden = append(golden, 1)    // path length
	golden = putID(golden, hop)   // path[0]
	golden = append(golden, 0, 1) // element count
	golden = append(golden, 0, 3) // nslen
	golden = append(golden, "app"...)
	golden = append(golden, 0, 4) // namelen
	golden = append(golden, "data"...)
	golden = append(golden, 0, 0)       // mimelen
	golden = append(golden, 0, 0, 0, 2) // datalen
	golden = append(golden, 0xCA, 0xFE)

	m, err := Unmarshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != msgID || m.Src != src || m.TTL != 6 {
		t.Fatalf("envelope mismatch: %+v", m)
	}
	if len(m.Path) != 1 || m.Path[0] != hop {
		t.Fatalf("path mismatch: %v", m.Path)
	}
	if got := m.Bytes("app", "data"); !bytes.Equal(got, []byte{0xCA, 0xFE}) {
		t.Fatalf("payload mismatch: %x", got)
	}

	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("re-marshal diverged from golden frame:\n got %x\nwant %x", enc, golden)
	}
}

func TestMarshalAppendUsesBuffer(t *testing.T) {
	m := testMsg()
	buf := make([]byte, 0, m.WireSize())
	out, err := m.MarshalAppend(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("MarshalAppend reallocated despite sufficient capacity")
	}
	plain, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, plain) {
		t.Fatal("MarshalAppend and Marshal disagree")
	}
}

func TestUnmarshalRejectsBadIDKind(t *testing.T) {
	frame, err := testMsg().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the kind byte of the message ID (first byte after magic+version).
	frame[5] = 0xEE
	if _, err := Unmarshal(frame); err == nil {
		t.Fatal("corrupt kind byte must be rejected")
	}
}
