package jid

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewKinds(t *testing.T) {
	kinds := []Kind{KindPeer, KindGroup, KindPipe, KindMessage, KindCodat, KindModule}
	for _, k := range kinds {
		id := New(k)
		if id.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, id.Kind())
		}
		if id.IsZero() {
			t.Errorf("New(%v) returned zero ID", k)
		}
	}
}

func TestNewIsUnique(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := New(KindPeer)
		if seen[id] {
			t.Fatalf("duplicate ID generated: %v", id)
		}
		seen[id] = true
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPeer, KindGroup, KindPipe, KindMessage, KindCodat, KindModule} {
		id := New(k)
		s := id.String()
		if !strings.HasPrefix(s, "urn:jxta:uuid-") {
			t.Fatalf("String() = %q lacks urn prefix", s)
		}
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != id {
			t.Fatalf("round trip mismatch: %v != %v", got, id)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"urn:jxta:uuid-",
		"urn:jxta:uuid-zz",
		"not-a-urn",
		"urn:jxta:uuid-" + strings.Repeat("g", 34),             // bad hex
		"urn:jxta:uuid-" + strings.Repeat("0", 33),             // short
		"urn:jxta:uuid-" + strings.Repeat("0", 32) + "ff",      // bad kind
		"urn:jxta:uuid-" + strings.Repeat("0", 32) + "07",      // kind out of range
		"URN:JXTA:UUID-" + strings.Repeat("0", 32) + "01",      // case-sensitive prefix
		"urn:jxta:uuid-" + strings.Repeat("0", 34) + "trailer", // trailing junk
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseNil(t *testing.T) {
	id, err := Parse(Nil.String())
	if err != nil {
		t.Fatalf("Parse(nil URN): %v", err)
	}
	if !id.IsZero() {
		t.Fatalf("Parse(nil URN) = %v, want zero", id)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on garbage did not panic")
		}
	}()
	MustParse("garbage")
}

func TestTextMarshaling(t *testing.T) {
	id := New(KindPipe)
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("text round trip: %v != %v", back, id)
	}
	if err := back.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText(bogus) succeeded")
	}
}

func TestFromSeedDeterministic(t *testing.T) {
	a := FromSeed(KindPeer, 42)
	b := FromSeed(KindPeer, 42)
	if a != b {
		t.Fatal("FromSeed not deterministic")
	}
	c := FromSeed(KindPeer, 43)
	if a == c {
		t.Fatal("FromSeed(42) == FromSeed(43)")
	}
	d := FromSeed(KindGroup, 42)
	if a == d {
		t.Fatal("kind not part of FromSeed identity")
	}
}

// TestNamedIsAFunctionOfKindAndName: one (kind, name) always gives one
// ID, of that kind, that parses back from its string; another kind or
// another name gives another ID; and no name gives a well-known group.
func TestNamedIsAFunctionOfKindAndName(t *testing.T) {
	for _, name := range []string{"", "PS.SkiRental", "PS.Quote/Stock", "NETPG", "WORLD"} {
		g := Named(KindGroup, name)
		if g != Named(KindGroup, name) {
			t.Fatalf("Named(group, %q) is not deterministic", name)
		}
		if g.Kind() != KindGroup || g.IsZero() {
			t.Fatalf("Named(group, %q) = %v", name, g)
		}
		if back, err := Parse(g.String()); err != nil || back != g {
			t.Fatalf("Named(group, %q) does not round-trip: %v, %v", name, back, err)
		}
		if p := Named(KindPipe, name); p == g || p.UUID() == g.UUID() {
			t.Fatalf("the group and the pipe named %q share a UUID", name)
		}
		if g == NetGroup || g == WorldGroup {
			t.Fatalf("Named(group, %q) is a well-known group", name)
		}
		if name != "" && g == Named(KindGroup, name+"x") {
			t.Fatalf("Named(group, %q) ignores the name", name)
		}
	}
}

func TestNewPipeInScopesGroup(t *testing.T) {
	g1 := NewGroup()
	g2 := NewGroup()
	p1 := NewPipeIn(g1)
	p2 := NewPipeIn(g2)
	if p1.Kind() != KindPipe {
		t.Fatalf("NewPipeIn kind = %v", p1.Kind())
	}
	u1, ug1 := p1.UUID(), g1.UUID()
	if !reflect.DeepEqual(u1[:8], ug1[:8]) {
		t.Fatal("pipe ID does not embed group prefix")
	}
	if p1 == p2 {
		t.Fatal("pipes in different groups collided")
	}
	if NewPipeIn(g1) == p1 {
		t.Fatal("NewPipeIn not random within group")
	}
}

func TestShort(t *testing.T) {
	id := FromSeed(KindPeer, 0x69400000000)
	s := id.Short()
	if len(s) != 8 || !strings.Contains(s, "..") {
		t.Fatalf("Short() = %q, want 3+..+3 form", s)
	}
}

func TestLessTotalOrder(t *testing.T) {
	ids := make([]ID, 100)
	for i := range ids {
		ids[i] = FromSeed(Kind(1+i%6), uint64(i*7919))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i].Less(ids[i-1]) {
			t.Fatalf("sort not total at %d", i)
		}
	}
	if ids[0].Less(ids[0]) {
		t.Fatal("Less not irreflexive")
	}
}

// Property: String/Parse round-trips for arbitrary seeds and kinds.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, kindRaw uint8) bool {
		kind := Kind(1 + kindRaw%6)
		id := FromSeed(kind, seed)
		got, err := Parse(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Less is antisymmetric and consistent with equality.
func TestQuickLessAntisymmetric(t *testing.T) {
	f := func(a, b uint64, ka, kb uint8) bool {
		x := FromSeed(Kind(1+ka%6), a)
		y := FromSeed(Kind(1+kb%6), b)
		if x == y {
			return !x.Less(y) && !y.Less(x)
		}
		return x.Less(y) != y.Less(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet()
	a, b := New(KindPeer), New(KindPeer)
	if !s.Add(a) {
		t.Fatal("first Add returned false")
	}
	if s.Add(a) {
		t.Fatal("second Add returned true")
	}
	if !s.Contains(a) || s.Contains(b) {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Add(b)
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d", len(snap))
	}
	if !s.Remove(a) {
		t.Fatal("Remove present returned false")
	}
	if s.Remove(a) {
		t.Fatal("Remove absent returned true")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after remove = %d", s.Len())
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	const n = 64
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < n; i++ {
				id := FromSeed(KindMessage, uint64(rng.Intn(32)))
				s.Add(id)
				s.Contains(id)
				if rng.Intn(4) == 0 {
					s.Remove(id)
				}
				s.Len()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() > 32 {
		t.Fatalf("set grew beyond key space: %d", s.Len())
	}
}

func TestWireRoundTrip(t *testing.T) {
	// Property: FromWire inverts AppendWire for every valid ID.
	f := func(seed uint64, kindSel uint8) bool {
		kind := Kind(kindSel%6 + 1)
		id := FromSeed(kind, seed)
		buf := id.AppendWire(nil)
		if len(buf) != WireSize {
			return false
		}
		got, err := FromWire(buf[0], [16]byte(buf[1:]))
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireMatchesTextForm(t *testing.T) {
	// The binary wire form and the canonical URN must name the same ID.
	for kind := KindPeer; kind <= KindModule; kind++ {
		id := New(kind)
		buf := id.AppendWire(nil)
		viaWire, err := FromWire(buf[0], [16]byte(buf[1:]))
		if err != nil {
			t.Fatal(err)
		}
		viaText, err := Parse(id.String())
		if err != nil {
			t.Fatal(err)
		}
		if viaWire != viaText {
			t.Fatalf("wire %v != text %v", viaWire, viaText)
		}
	}
}

func TestFromWireRejectsBadKind(t *testing.T) {
	var uuid [16]byte
	uuid[0] = 1 // non-zero so the input is not the nil ID
	for _, kind := range []byte{0, 7, 8, 42, 255} {
		if _, err := FromWire(kind, uuid); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("kind %#x: want ErrBadFormat, got %v", kind, err)
		}
	}
}

func TestFromWireNil(t *testing.T) {
	id, err := FromWire(0, [16]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if !id.IsZero() {
		t.Fatalf("all-zero wire form must decode to the nil ID, got %v", id)
	}
}

func TestAppendWireReusesBuffer(t *testing.T) {
	id := FromSeed(KindPipe, 99)
	buf := make([]byte, 0, 64)
	out := id.AppendWire(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendWire reallocated despite sufficient capacity")
	}
}

// TestNumberedRoundTrip: a numbered message ID gives back its stream and
// sequence, through its wire and text forms too, and is a UUIDv8 of
// kind message; a random ID of any kind is not numbered.
func TestNumberedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		stream := r.Uint64() >> (64 - streamBits)
		seq := r.Uint64() >> (64 - seqBits)
		switch i {
		case 0:
			stream, seq = 0, 0
		case 1:
			stream, seq = 1<<streamBits-1, 1<<seqBits-1
		}
		id := NumberedMessage(stream, seq)
		u := id.UUID()
		if id.Kind() != KindMessage || u[6]>>4 != 8 || u[8]>>6 != 0b10 {
			t.Fatalf("NumberedMessage(%#x, %#x) = %v: not a UUIDv8 message ID", stream, seq, id)
		}
		fromWire, err := FromWire(id.AppendWire(nil)[0], u)
		if err != nil || fromWire != id || MustParse(id.String()) != id {
			t.Fatalf("%v does not round-trip: %v, %v", id, fromWire, err)
		}
		if s, q, ok := id.Numbered(); !ok || s != stream || q != seq {
			t.Fatalf("NumberedMessage(%#x, %#x).Numbered() = %#x, %#x, %v", stream, seq, s, q, ok)
		}
	}
	if s := NewStream(); s>>streamBits != 0 {
		t.Fatalf("NewStream() = %#x, wider than %d bits", s, streamBits)
	}
	for _, k := range []Kind{KindPeer, KindGroup, KindPipe, KindMessage, KindCodat, KindModule} {
		if _, _, ok := New(k).Numbered(); ok {
			t.Fatalf("a random %v ID reads as numbered", k)
		}
	}
	if _, _, ok := Nil.Numbered(); ok {
		t.Fatal("the nil ID reads as numbered")
	}
}
