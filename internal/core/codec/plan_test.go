package codec

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
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
	return dp.plan.decode(blob[n:], typ)
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

// TestGobDecodePlanAllocates pins what a plan costs: the value, one
// string arena, one copy per non-empty []byte field and the interface
// copy of the value.
func TestGobDecodePlanAllocates(t *testing.T) {
	resetGobCaches(t)
	for _, c := range []struct {
		ev   any
		want float64
	}{
		{kinds{S: "s", T: "t", Raw: []byte("raw")}, 4},
		{kinds{S: "s", T: "t"}, 3},
		{kinds{I: 1}, 2},
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

// BenchmarkGobDecode times Decode on both sides of the plan's
// selection: flat is a 2 kB event shaped like the benchmark's, which a
// plan decodes; nested is rich, which a kept decoder does.
func BenchmarkGobDecode(b *testing.B) {
	type event struct {
		Seq         uint64
		SentNS      int64
		Shop, Brand string
		Price, Days float64
		Pad         []byte
	}
	pad := make([]byte, 1800)
	for i := range pad {
		pad[i] = byte(i * 7)
	}
	at := time.Date(2002, 7, 2, 9, 30, 0, 0, time.UTC)
	for _, c := range []struct {
		name string
		ev   any
		plan bool
	}{
		{"flat", event{Seq: 1 << 20, SentNS: 1 << 40, Shop: "XTremShop", Brand: "Salomon", Price: 14, Days: 100, Pad: pad}, true},
		{"nested", rich{In: inner{1, "in"}, List: []inner{{2, "l0"}, {3, "l1"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}, At: at}, false},
	} {
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
