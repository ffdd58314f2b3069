package codec

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tps-p2p/tps/internal/israce"
)

// withUnexported has fields gob does not send: unexported ones, and a
// func and a chan.
type withUnexported struct {
	a   int
	B   string
	c   []byte
	F   func()
	Ch  chan int
	D   float32
	raw []byte
}

// binNum and gobFlag are builtin kinds that encode themselves: gob
// describes each as a type of its own and hands it to its method.
// textName and ptrText, on a value and through a pointer, have a
// MarshalText that gob does not call: it sends them as strings.
type (
	binNum   uint32
	textName string
	gobFlag  bool
	ptrText  string
)

func (n binNum) MarshalBinary() ([]byte, error) { return []byte{byte(n), byte(n >> 8)}, nil }
func (s textName) MarshalText() ([]byte, error) { return []byte(strings.ToUpper(string(s))), nil }
func (g gobFlag) GobEncode() ([]byte, error) {
	if g {
		return []byte{'y'}, nil
	}
	return []byte{'n'}, nil
}
func (p *ptrText) MarshalText() ([]byte, error) { return []byte("*" + string(*p)), nil }

type selfEncoding struct {
	N binNum
	T textName
	G gobFlag
	P ptrText
	I int64
}

// binEvent encodes itself as a whole; textEvent has a MarshalText that
// gob does not call.
type (
	binEvent  struct{ S string }
	textEvent struct{ S string }
)

func (e binEvent) MarshalBinary() ([]byte, error) { return []byte(e.S), nil }
func (e textEvent) MarshalText() ([]byte, error)  { return []byte(e.S), nil }

// encodePlanOf reports whether Encode keeps an encode plan for v's type,
// encoding v first.
func encodePlanOf(t testing.TB, v any) bool {
	t.Helper()
	if _, err := (Gob{}).Encode(v); err != nil {
		t.Fatal(err)
	}
	e, _ := encTypes.Load(reflect.Indirect(reflect.ValueOf(v)).Type())
	et, _ := e.(*encType)
	return et != nil && et.plan != nil
}

// TestGobEncodePlanSelection: a struct of builtin fields, narrow ints,
// float32, named kinds and fields gob skips included, is encoded by a
// plan; a type that encodes itself or has a field that does, a struct,
// pointer or interface field is left to a kept or fresh encoder.
// MarshalText is not encoding itself: gob never calls it.
func TestGobEncodePlanSelection(t *testing.T) {
	resetGobCaches(t)
	for _, c := range []struct {
		v    any
		plan bool
	}{
		{kinds{I: 1}, true},
		{&wideKinds{S: "s"}, true},
		{withUnexported{B: "b"}, true},
		{promoted{embedded{I64: 1}, "s"}, true}, // gob skips the unexported embedded field
		{pointy{Raw: []byte{1}}, false},
		{rich{In: inner{1, "in"}}, false},
		{withAny{Label: "l", Extra: foo{A: 1}}, false},
		{selfEncoding{I: 1}, false},
		{binEvent{S: "s"}, false},
		{textEvent{S: "s"}, true},
		{struct {
			T textName
			P ptrText
		}{"t", "p"}, true},
	} {
		if got := encodePlanOf(t, c.v); got != c.plan {
			t.Errorf("%T: encoded by a plan %v, want %v", c.v, got, c.plan)
		}
	}
}

// TestGobEncodePlanAllocates pins what a blob costs through the plan:
// Encode allocates the blob alone, and AppendEncode into a buffer with
// room for it nothing.
func TestGobEncodePlanAllocates(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	resetGobCaches(t)
	var ev any = kinds{I: -3, S: "shop", Raw: make([]byte, 100), F64: 1.5}
	if !encodePlanOf(t, ev) {
		t.Fatal("no encode plan for kinds")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Gob{}.Encode(ev) }); n != 1 {
		t.Errorf("Encode allocates %.1f/op through a plan, want 1", n)
	}
	room := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { _, _ = Gob{}.AppendEncode(room, ev) }); n != 0 {
		t.Errorf("AppendEncode into room for the blob allocates %.1f/op, want 0", n)
	}
}

// FuzzGobEncodeMatchesGob holds the encode plan to the standard library:
// for values built from arbitrary field contents, Encode — through a
// fresh encoder the first time a type is seen, then through the plan or
// a kept encoder — returns the blob a fresh gob.Encoder writes, byte for
// byte, and AppendEncode appends that blob behind what its buffer holds.
// The types are flat ones of every builtin kind the plan writes, narrow
// ints and float32 included, one with fields gob skips, ones with a
// MarshalText gob does not call, and ones the plan must leave to gob:
// fields that encode themselves, and a type that does.
func FuzzGobEncodeMatchesGob(f *testing.F) {
	f.Add(true, int64(1), uint64(1), 1.5, "s", []byte{1})
	f.Add(false, int64(0), uint64(0), 0.0, "", []byte(nil))
	f.Add(false, int64(-1), uint64(math.MaxUint64), math.Copysign(0, -1), "", []byte{})
	f.Add(true, int64(math.MinInt64), uint64(1<<63), math.NaN(), "Zürich €", []byte("raw"))
	f.Add(true, int64(math.MaxInt64), uint64(255), math.Inf(-1), "\xff\xfe", make([]byte, 300))
	f.Add(false, int64(-128), uint64(128), math.MaxFloat64, strings.Repeat("x", 200), []byte{0})
	f.Add(true, int64(1<<15), uint64(1<<32), math.SmallestNonzeroFloat64, "日本", []byte{0x80})
	f.Fuzz(func(t *testing.T, b bool, i int64, u uint64, fl float64, s string, raw []byte) {
		for _, v := range []any{
			kinds{B: b, I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i, U: uint(u), U8: uint8(u),
				U16: uint16(u), U32: uint32(u), U64: u, P: uintptr(u), F32: float32(fl), F64: fl, S: s, Raw: raw, L: level(i), T: s},
			&wideKinds{B: b, I: i, U: u, F32: float64(float32(fl)), F64: fl, S: s, Raw: raw, T: s},
			withUnexported{a: int(i), B: s, c: raw, D: float32(fl), raw: raw},
			promoted{embedded{I64: i, U: uint(u)}, s},
			selfEncoding{N: binNum(u), T: textName(s), G: gobFlag(b), P: ptrText(s), I: i},
			binEvent{S: s},
			textEvent{S: s},
		} {
			want := freshEncode(t, v)
			for pass := 0; pass < 2; pass++ {
				got, err := Gob{}.Encode(v)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%T pass %d: Encode %x (%v), gob %x", v, pass, got, err, want)
				}
			}
			head := []byte("head")
			got, err := Gob{}.AppendEncode(bytes.Clone(head), v)
			if err != nil || !bytes.Equal(got, append(head, want...)) {
				t.Fatalf("%T: AppendEncode %x (%v), want %x behind %q", v, got, err, want, head)
			}
		}
	})
}

// BenchmarkGobEncode times Encode on both sides of the plan's
// selection — flat is a 2 kB event shaped like the benchmark's, which a
// plan encodes, nested is rich, which a kept encoder does — and the
// plan's AppendEncode into a buffer with room, which leaves out the
// allocation of the blob.
func BenchmarkGobEncode(b *testing.B) {
	type event struct {
		Seq         uint64
		SentNS      int64
		Shop, Brand string
		Price, Days float64
		Pad         []byte
	}
	flat := any(event{Seq: 1 << 20, SentNS: 1 << 40, Shop: "XTremShop", Brand: "Salomon", Price: 14, Days: 100, Pad: make([]byte, 1800)})
	nested := any(rich{In: inner{1, "in"}, List: []inner{{2, "l0"}, {3, "l1"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}})
	room := make([]byte, 0, 4096)
	for _, c := range []struct {
		name string
		ev   any
		plan bool
		enc  func() ([]byte, error)
	}{
		{"flat", flat, true, func() ([]byte, error) { return Gob{}.Encode(flat) }},
		{"flat-into-room", flat, true, func() ([]byte, error) { return Gob{}.AppendEncode(room, flat) }},
		{"nested", nested, false, func() ([]byte, error) { return Gob{}.Encode(nested) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			resetGobCaches(b)
			if encodePlanOf(b, c.ev) != c.plan {
				b.Fatalf("encoded by a plan: %v, want %v", !c.plan, c.plan)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.enc(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
