package codec

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
)

// level is a named basic type.
type level int16

// kinds has a field of every kind a decode plan sets.
type kinds struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	P   uintptr
	F32 float32
	F64 float64
	S   string
	Raw []byte
	L   level
	T   string
}

// wideKinds sends kinds' field names at the widest kind of each, so its
// values can overflow the narrower kinds of a kinds.
type wideKinds struct {
	B                       bool
	I, I8, I16, I32, I64    int64
	U, U8, U16, U32, U64, P uint64
	F32, F64                float64
	S                       string
	Raw                     []byte
	L                       int64
	T                       string
}

// fewKinds has fields of kinds in another order and lacks most of them,
// and has one no sender has.
type fewKinds struct {
	T     string
	Extra string
	Raw   []byte
	I64   int64
	F32   float32
}

// promoted gets two of kinds' names from an embedded struct, where gob
// finds them and a plan does not go.
type promoted struct {
	embedded
	S string
}

type embedded struct {
	I64 int64
	U   uint
}

// shouting is what a sender of hidden's unexported field would look
// like: its blobs, with "Sxyzzy" renamed "sxyzzy", name a field gob
// must ignore.
type shouting struct {
	Sxyzzy string
	I64    int64
}

type hidden struct {
	sxyzzy string
	I64    int64
}

// pointy decodes kinds' fields through pointers, which a plan leaves to
// gob.
type pointy struct {
	I64 *int64
	S   *string
	Raw []byte
}

// upper decodes itself from text, which gob will not do from a string.
type upper string

func (u *upper) UnmarshalText(b []byte) error {
	*u = upper(strings.ToUpper(string(b)))
	return nil
}

type withText struct {
	S   upper
	I64 int64
}

// unexportName is the blob of a shouting with its first field's name
// made unexported.
func unexportName(t testing.TB, v shouting) []byte {
	return bytes.Replace(freshEncode(t, v), []byte("Sxyzzy"), []byte("sxyzzy"), 1)
}

// withEmptyRaw is the blob of a kinds whose Raw is sent with length 0,
// which gob's encoder never does and gob's decoder decodes as nil.
func withEmptyRaw(t testing.TB) []byte {
	blob := freshEncode(t, kinds{Raw: []byte("z")})
	n, _ := splitBlob(blob)
	// The value message ends with Raw's length 1, its byte and the
	// terminator; its own length is one byte.
	out := append(bytes.Clone(blob[:len(blob)-3]), 0, 0)
	out[n]--
	return out
}

// byPlan decodes blob through the plan Decode keeps for typ behind the
// blob's prefix; ok is false if there is none or it declines.
func byPlan(blob []byte, typ reflect.Type) (v any, ok bool) {
	n, framed := splitBlob(blob)
	if !framed {
		return nil, false
	}
	decPrefixes.RLock()
	dp := decPrefixes.m[decKey{typ, string(blob[:n])}]
	decPrefixes.RUnlock()
	if dp == nil || dp.plan == nil {
		return nil, false
	}
	return dp.plan.decode(blob[n:])
}

// TestGobDecodeCopiesOutOfTheBlob: the engine hands Decode a slice of a
// read chunk the transport reuses, so a decoded value must not change
// when the blob does — on a plan and on a kept decoder alike.
func TestGobDecodeCopiesOutOfTheBlob(t *testing.T) {
	resetGobCaches(t)
	for _, c := range []struct {
		ev   any
		plan bool
	}{
		{kinds{S: "string", T: "another", Raw: []byte("bytes"), I64: -5, F64: 2.5, L: 7}, true},
		{rich{In: inner{1, "in"}, List: []inner{{2, "l"}}, One: map[string]int{"key": 4}, Ptr: &inner{5, "p"}}, false},
	} {
		typ := reflect.TypeOf(c.ev)
		blob := freshEncode(t, c.ev)
		// The first pass is a fresh decoder's, the rest the plan's or a
		// kept decoder's.
		for pass := 0; pass < 3; pass++ {
			data := bytes.Clone(blob)
			out, err := Gob{}.Decode(data, typ)
			if err != nil {
				t.Fatalf("%v pass %d: %v", typ, pass, err)
			}
			for i := range data {
				data[i] = ^data[i]
			}
			if !reflect.DeepEqual(out, c.ev) {
				t.Fatalf("%v pass %d: the value changed with the blob: %+v", typ, pass, out)
			}
		}
		if _, ok := byPlan(blob, typ); ok != c.plan {
			t.Errorf("%v decodes through a plan: %v, want %v", typ, ok, c.plan)
		}
	}
	// A plan cuts every string and []byte field from one block: writing
	// all of a []byte field, and appending to it, must leave the strings
	// cut behind it as they were.
	want := kinds{S: "string", Raw: []byte("bytes"), T: "another"}
	blob := freshEncode(t, want)
	v, ok := byPlan(blob, reflect.TypeOf(want))
	if !ok {
		t.Fatal("kinds does not decode through a plan")
	}
	got := v.(kinds)
	if cap(got.Raw) != len(got.Raw) {
		t.Fatalf("Raw has capacity %d behind its %d bytes: an append would write into the next field", cap(got.Raw), len(got.Raw))
	}
	for i := range got.Raw {
		got.Raw[i] = '#'
	}
	_ = append(got.Raw, "#####"...)
	for i := range blob {
		blob[i] = ^blob[i]
	}
	if got.S != want.S || got.T != want.T || string(got.Raw) != "#####" {
		t.Fatalf("after writes to Raw and to the blob, the value reads %+v", got)
	}
}

// lifetime is a flat event with local fields no sender has: gob leaves
// M and P nil, and a plan, whose block the collector does not scan, must
// too. lifetimeWire is what its senders send.
type lifetime struct {
	Seq  int
	Name string
	Body []byte
	M    map[string]int
	Tag  string
	P    *int
}

type lifetimeWire struct {
	Seq  int
	Name string
	Body []byte
	Tag  string
}

// lifetimeNested is what a kept decoder decodes: In is a struct of its
// own, which no plan reads.
type lifetimeNested struct {
	In   inner
	Body []byte
	M    map[string]int
}

// onlyPointer is pointer-shaped: an interface holds it in its data word.
type onlyPointer struct{ P *int }

type empty struct{}

// piece is what TestDecodedValueOutlivesCollections keeps of its nth
// event v: a string of it, its []byte, or v itself.
func piece(v any, n int) any {
	var str string
	var b []byte
	switch x := v.(type) {
	case lifetime:
		str, b = x.Name, x.Body
	case lifetimeNested:
		str, b = x.In.S, x.Body
	}
	switch n % 3 {
	case 0:
		return str
	case 2:
		return b
	}
	return v
}

// TestDecodedValueOutlivesCollections decodes a few thousand events of
// varied sizes, through a plan and through a kept decoder, and keeps
// one piece of each: a string, a []byte, or the whole value. A plan's
// block is not scanned by the collector and is reached only through
// such pieces, so collections in between, with fresh garbage to reuse
// whatever was freed, must leave every survivor as a fresh gob decoder
// reads it.
func TestDecodedValueOutlivesCollections(t *testing.T) {
	resetGobCaches(t)
	const batches, perBatch = 30, 100
	type survivor struct {
		blob []byte
		typ  reflect.Type
		kept any // a string, a []byte or the decoded value
	}
	var survivors []survivor
	var garbage [][]byte
	for b := range batches {
		for i := range perBatch {
			n := b*perBatch + i
			var ev any = lifetimeWire{Seq: n, Name: strings.Repeat("n", n%37), Body: bytes.Repeat([]byte{byte(n)}, n*13%2500), Tag: "t"}
			typ := reflect.TypeOf(lifetime{})
			if n%2 == 1 {
				ev = lifetimeNested{In: inner{n, strings.Repeat("s", n%29)}, Body: bytes.Repeat([]byte{byte(n)}, n*7%1800)}
				typ = reflect.TypeOf(lifetimeNested{})
			}
			blob := freshEncode(t, ev)
			data := bytes.Clone(blob)
			v, err := Gob{}.Decode(data, typ)
			if err != nil {
				t.Fatal(err)
			}
			clear(data)
			if x, ok := v.(lifetime); ok && (x.M != nil || x.P != nil) {
				t.Fatalf("event %d: fields no sender has read %v, %v", n, x.M, x.P)
			}
			survivors = append(survivors, survivor{blob, typ, piece(v, n)})
		}
		garbage = garbage[:0]
		for i := range perBatch {
			garbage = append(garbage, bytes.Repeat([]byte{0xa5}, 16+i*29%2500))
		}
		runtime.GC()
	}
	for _, s := range survivors[:2] {
		if _, ok := byPlan(s.blob, s.typ); ok != (s.typ == reflect.TypeOf(lifetime{})) {
			t.Fatalf("%v decodes through a plan: %v; the test is void", s.typ, ok)
		}
	}
	runtime.GC()
	for n, s := range survivors {
		v, err := freshDecode(s.blob, s.typ)
		if err != nil {
			t.Fatal(err)
		}
		if want := piece(v, n); !reflect.DeepEqual(s.kept, want) {
			t.Fatalf("event %d of %v reads %v after collections, want %v", n, s.typ, s.kept, want)
		}
	}

	// A pointer-shaped type and an empty struct, whichever path decodes
	// them: the fresh decoder's first, then a kept decoder's or a plan's.
	x := 7
	for _, c := range []struct {
		ev  any
		typ reflect.Type
	}{
		{onlyPointer{&x}, reflect.TypeOf(onlyPointer{})},
		{empty{}, reflect.TypeOf(onlyPointer{})},
		{map[string]int{"k": 1}, reflect.TypeOf(map[string]int{})},
		{empty{}, reflect.TypeOf(empty{})},
	} {
		blob := freshEncode(t, c.ev)
		want, err := freshDecode(blob, c.typ)
		if err != nil {
			t.Fatal(err)
		}
		for pass := range 3 {
			if got, err := (Gob{}).Decode(blob, c.typ); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%T as %v, pass %d: Decode %#v, %v; gob %#v", c.ev, c.typ, pass, got, err, want)
			}
		}
		if _, ok := byPlan(blob, c.typ); ok && pointerShaped(c.typ) {
			t.Errorf("%T as %v: a plan decodes a pointer-shaped type", c.ev, c.typ)
		}
	}
}

// TestGobDecodePlanStartsFromZero: gob leaves a zero field out of the
// value message, so a field the message does not carry must read zero —
// not what the previous message set — also with the plan in use by
// several goroutines at once.
func TestGobDecodePlanStartsFromZero(t *testing.T) {
	resetGobCaches(t)
	typ := reflect.TypeOf(kinds{})
	full := kinds{B: true, I: -1, I8: -2, I16: 3, I32: -4, I64: 5, U: 6, U8: 7, U16: 8, U32: 9, U64: 10, P: 11,
		F32: 1.5, F64: -2.5, S: "full", Raw: []byte("raw"), L: 12, T: "t"}
	if _, err := (Gob{}).Decode(freshEncode(t, full), typ); err != nil {
		t.Fatal(err)
	}
	for _, want := range []kinds{full, {I: 1}, full, {S: "s"}, full, {Raw: []byte{0}}, full, {}} {
		blob := freshEncode(t, want)
		if _, ok := byPlan(blob, typ); !ok {
			t.Fatalf("%+v: no plan", want)
		}
		got, err := Gob{}.Decode(blob, typ)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, %v after a full value; want %+v", got, err, want)
		}
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				want := kinds{I: g*1000 + i, S: strings.Repeat("s", g)}
				if i%2 == 0 {
					want.T, want.F64, want.Raw = "t", float64(g), []byte{byte(g), byte(i)}
				}
				got, err := Gob{}.Decode(freshEncode(t, want), typ)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d decoded %+v, %v; want %+v", g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGobDecodePlanDeclines hands a plan each kind of value message it
// must leave to gob, behind a prefix it has decoded before: it declines
// each, and Decode answers as a fresh decoder does.
func TestGobDecodePlanDeclines(t *testing.T) {
	resetGobCaches(t)
	typ := reflect.TypeOf(kinds{})
	good := freshEncode(t, wideKinds{I: 1, S: "s"})
	if _, err := (Gob{}).Decode(good, typ); err != nil {
		t.Fatal(err)
	}
	if _, ok := byPlan(good, typ); !ok {
		t.Fatal("no plan for kinds behind wideKinds' descriptor; the test is void")
	}
	n, _ := splitBlob(good)
	id, _, _ := gobMessage(good[n:])
	// value is good's descriptor followed by a value message of the
	// given type id and body. wideKinds has 18 fields; S is the 15th.
	value := func(id uint64, body ...byte) []byte {
		msg := append(appendGobUint(nil, id), body...)
		return append(appendGobUint(bytes.Clone(good[:n]), uint64(len(msg))), msg...)
	}
	for name, blob := range map[string][]byte{
		"int8 over":                 freshEncode(t, wideKinds{I8: 128}),
		"int8 under":                freshEncode(t, wideKinds{I8: -129}),
		"int16":                     freshEncode(t, wideKinds{I16: -40000}),
		"int32":                     freshEncode(t, wideKinds{I32: 1 << 40}),
		"named int16":               freshEncode(t, wideKinds{L: 1 << 15}),
		"uint8":                     freshEncode(t, wideKinds{U8: 256}),
		"uint16":                    freshEncode(t, wideKinds{U16: 1 << 20}),
		"uint32":                    freshEncode(t, wideKinds{U32: 1 << 33}),
		"float32":                   freshEncode(t, wideKinds{F32: math.MaxFloat64}),
		"float32 negative":          freshEncode(t, wideKinds{F32: -2 * math.MaxFloat32}),
		"another type id":           value(id+2, 0),
		"a field past the last":     value(id, 19, 0),
		"a length past the message": value(id, 15, 3, 's', 0),
		"a malformed integer":       value(id, 2, 0x80, 0),
		"an integer cut off":        value(id, 2, 0xfe, 1),
		"bytes after the end":       value(id, 2, 2, 0, 0),
		"no terminator":             value(id, 2, 2),
	} {
		if _, ok := byPlan(blob, typ); ok {
			t.Errorf("%s: the plan decodes it", name)
		}
		want, wantErr := freshDecode(blob, typ)
		got, err := Gob{}.Decode(blob, typ)
		if (err == nil) != (wantErr == nil) || err == nil && !sameValue(got, want) {
			t.Errorf("%s: Decode %#v, %v; fresh decoder %#v, %v", name, got, err, want, wantErr)
		}
	}
}

// TestGobDecodePlanNeedsAMatchedField: gob also decodes a struct from
// the id of one of its own builtin struct types, so a fresh decoder can
// accept a blob behind a descriptor that shares no field with the local
// type, and a plan is then compiled for that prefix. A value of the
// descriptor's type must still be refused, as gob refuses it: no field
// matched.
func TestGobDecodePlanNeedsAMatchedField(t *testing.T) {
	resetGobCaches(t)
	typ := reflect.TypeOf(kinds{})
	blob := freshEncode(t, skiRental{Shop: "s", Price: 1})
	n, _ := splitBlob(blob)
	msg := append(appendGobUint(nil, 18<<1), 0) // an empty value of gob's structType, id 18
	builtin := append(appendGobUint(bytes.Clone(blob[:n]), uint64(len(msg))), msg...)
	if _, err := freshDecode(builtin, typ); err != nil {
		t.Fatalf("a fresh decoder refuses the builtin-typed value (%v); the test is void", err)
	}
	if _, err := (Gob{}).Decode(builtin, typ); err != nil {
		t.Fatal(err)
	}
	if _, err := freshDecode(blob, typ); err == nil {
		t.Fatal("a fresh decoder decodes a skiRental as kinds; the test is void")
	}
	if v, err := (Gob{}).Decode(blob, typ); err == nil {
		t.Fatalf("Decode decodes a skiRental as %+v, which a fresh decoder refuses", v)
	}
}

// TestGobDecodePlanAllocates pins what a plan costs: one block, headed
// by the value, with every non-empty string and []byte field cut from
// the rest; the any Decode returns points to it. A plan keeps no pool,
// so the pin holds under the race detector too.
func TestGobDecodePlanAllocates(t *testing.T) {
	resetGobCaches(t)
	for _, c := range []struct {
		ev   any
		want float64
	}{
		{kinds{S: "s", T: "t", Raw: []byte("raw")}, 1},
		{kinds{S: "s", T: "t"}, 1},
		{kinds{I: 1}, 1},
	} {
		typ := reflect.TypeOf(c.ev)
		blob := freshEncode(t, c.ev)
		if _, err := (Gob{}).Decode(blob, typ); err != nil {
			t.Fatal(err)
		}
		if _, ok := byPlan(blob, typ); !ok {
			t.Fatalf("%+v: no plan", c.ev)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Gob{}.Decode(blob, typ) }); n != c.want {
			t.Errorf("%+v: Decode allocates %.1f/op through a plan, want %.0f", c.ev, n, c.want)
		}
	}
}

// benchEvent is a 2 kB event shaped like the benchmark's.
type benchEvent struct {
	Seq         uint64
	SentNS      int64
	Shop, Brand string
	Price, Days float64
	Pad         []byte
}

// decodeCases are Decode's events on both sides of the plan's
// selection: flat, which a plan decodes, and nested, a rich, which a
// kept decoder does.
func decodeCases() []struct {
	name string
	ev   any
	plan bool
} {
	pad := make([]byte, 1800)
	for i := range pad {
		pad[i] = byte(i * 7)
	}
	at := time.Date(2002, 7, 2, 9, 30, 0, 0, time.UTC)
	return []struct {
		name string
		ev   any
		plan bool
	}{
		{"flat", benchEvent{Seq: 1 << 20, SentNS: 1 << 40, Shop: "XTremShop", Brand: "Salomon", Price: 14, Days: 100, Pad: pad}, true},
		{"nested", rich{In: inner{1, "in"}, List: []inner{{2, "l0"}, {3, "l1"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}, At: at}, false},
	}
}

// TestGobDecodeKeptAllocates pins what a kept decoder costs on the
// nested event: 15 objects, the value gob sets among them — Decode
// returns it, not a copy.
func TestGobDecodeKeptAllocates(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	resetGobCaches(t)
	ev := decodeCases()[1].ev
	typ, blob := reflect.TypeOf(ev), freshEncode(t, ev)
	if _, err := (Gob{}).Decode(blob, typ); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Gob{}.Decode(blob, typ) }); n != 15 {
		t.Errorf("Decode allocates %.1f/op on a kept decoder, want 15 (16 with a copy of the value)", n)
	}
}

// BenchmarkGobDecode times Decode on both sides of the plan's
// selection.
func BenchmarkGobDecode(b *testing.B) {
	for _, c := range decodeCases() {
		b.Run(c.name, func(b *testing.B) {
			resetGobCaches(b)
			typ := reflect.TypeOf(c.ev)
			blob := freshEncode(b, c.ev)
			if _, err := (Gob{}).Decode(blob, typ); err != nil {
				b.Fatal(err)
			}
			if _, ok := byPlan(blob, typ); ok != c.plan {
				b.Fatalf("decodes through a plan: %v, want %v", ok, c.plan)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := (Gob{}).Decode(blob, typ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
