package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/israce"
)

type bikeRental struct {
	Shop  string
	Price float64
}

type inner struct {
	N int
	S string
}

// rich has one field of every shape gob describes with its own
// descriptor message.
type rich struct {
	In   inner
	List []inner
	One  map[string]int
	Ptr  *inner
	At   time.Time
}

// withAny's descriptors mention the interface type; foo and bar are what
// the tests put behind it.
type withAny struct {
	Label string
	Extra any
}

type foo struct{ A int }

type bar struct{ B string }

func init() {
	gob.Register(foo{})
	gob.Register(bar{})
}

// resetGobCaches gives a test Gob's caches empty and leaves them empty.
func resetGobCaches(t testing.TB) {
	reset := func() {
		encTypes.Clear()
		decPrefixes.Lock()
		clear(decPrefixes.m)
		decPrefixes.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

// freshEncode is the standard library's rendering of v, the reference
// Gob.Encode must equal.
func freshEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(v)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshDecode decodes a blob with a standard-library decoder that has
// seen nothing else, the reference Gob.Decode must agree with.
func freshDecode(blob []byte, typ reflect.Type) (any, error) {
	ptr := reflect.New(typ)
	if err := gob.NewDecoder(bytes.NewReader(blob)).DecodeValue(ptr); err != nil {
		return nil, err
	}
	return ptr.Elem().Interface(), nil
}

// TestGobBlobsAreSelfContained locks in the property that lets blobs be
// stored and forwarded verbatim: every Encode output decodes standalone
// with a fresh standard-library decoder, because events land on
// arbitrary peers with no shared gob stream state. Interleaving types
// and decoding out of order would catch any leak of encoder
// type-descriptor state from one event into the next.
func TestGobBlobsAreSelfContained(t *testing.T) {
	resetGobCaches(t)
	c := Gob{}
	at := time.Date(2002, 7, 2, 9, 30, 0, 0, time.UTC)
	events := []any{
		skiRental{Shop: "a", Brand: "x", Price: 1, NumberOfDays: 2},
		bikeRental{Shop: "b", Price: 3},
		skiRental{Shop: "c", Brand: "y", Price: 4, NumberOfDays: 5},
		bikeRental{Shop: "d", Price: 6},
		skiRental{Shop: "e"},
		withAny{Label: "nil"},
		withAny{Label: "foo", Extra: foo{A: 1}},
		withAny{Label: "bar", Extra: bar{B: "b"}},
		withAny{Label: "nil again"},
		withAny{Label: "foo again", Extra: foo{A: 2}},
		rich{In: inner{1, "in"}, List: []inner{{2, "l0"}, {3, "l1"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}, At: at},
		rich{},
		rich{List: []inner{{6, "again"}}, At: at.Add(time.Hour)},
	}
	blobs := make([][]byte, len(events))
	var wg sync.WaitGroup
	// Encode concurrently so primed encoders actually move between
	// goroutines, then decode in reverse order so no decoder can lean on
	// stream state from an earlier blob.
	for i, ev := range events {
		wg.Add(1)
		go func(i int, ev any) {
			defer wg.Done()
			data, err := c.Encode(ev)
			if err != nil {
				t.Error(err)
				return
			}
			blobs[i] = data
		}(i, ev)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := len(blobs) - 1; i >= 0; i-- {
		typ := reflect.TypeOf(events[i])
		out, err := freshDecode(blobs[i], typ)
		if err != nil {
			t.Fatalf("blob %d, fresh decoder: %v", i, err)
		}
		if !reflect.DeepEqual(out, events[i]) {
			t.Fatalf("blob %d, fresh decoder: got %+v want %+v", i, out, events[i])
		}
		// No multi-key map among the events, so the rendering is unique.
		if want := freshEncode(t, events[i]); !bytes.Equal(blobs[i], want) {
			t.Fatalf("blob %d differs from a fresh encoder's:\n got %x\nwant %x", i, blobs[i], want)
		}
		for pass := 0; pass < 2; pass++ {
			out, err := c.Decode(blobs[i], typ)
			if err != nil {
				t.Fatalf("blob %d, Decode pass %d: %v", i, pass, err)
			}
			if !reflect.DeepEqual(out, events[i]) {
				t.Fatalf("blob %d, Decode pass %d: got %+v want %+v", i, pass, out, events[i])
			}
		}
	}

	// The descriptors of one type followed by the value message of
	// another: the primed decoder must refuse what a fresh one refuses,
	// and must not be left behind broken.
	ski, bike := blobs[0], blobs[1]
	skiValue, _ := splitBlob(ski)
	bikeValue, _ := splitBlob(bike)
	mixed := append(bytes.Clone(ski[:skiValue]), bike[bikeValue:]...)
	skiType := reflect.TypeOf(skiRental{})
	if _, err := freshDecode(mixed, skiType); err == nil {
		t.Fatal("a fresh decoder accepts a value message of an undescribed type; the test is void")
	}
	if _, err := c.Decode(mixed, skiType); err == nil {
		t.Fatal("value message of another type id decoded")
	}
	if out, err := c.Decode(ski, skiType); err != nil || !reflect.DeepEqual(out, events[0]) {
		t.Fatalf("good blob after a bad one: %+v, %v", out, err)
	}

	// Two types through the caches from 8 goroutines at once.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var ev any = skiRental{Shop: fmt.Sprint("s", g), Price: float64(i)}
				if (g+i)%2 == 0 {
					ev = rich{In: inner{i, "g"}, List: make([]inner, 1+i%4), Ptr: &inner{N: g}}
				}
				data, err := c.Encode(ev)
				if err != nil {
					t.Error(err)
					return
				}
				for _, decode := range []func([]byte, reflect.Type) (any, error){freshDecode, c.Decode} {
					if out, err := decode(data, reflect.TypeOf(ev)); err != nil || !reflect.DeepEqual(out, ev) {
						t.Errorf("goroutine %d event %d: %+v, %v", g, i, out, err)
						return
					}
				}
				// skiRental is flat, so Decode took its plan; rich is
				// not, so it took a kept decoder.
				_, ski := ev.(skiRental)
				if _, ok := byPlan(data, reflect.TypeOf(ev)); ok != ski {
					t.Errorf("goroutine %d event %d: %T decodes through a plan: %v", g, i, ev, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGobEncodeResultDoesNotAliasPool guards the copy-out: a returned
// blob must stay intact while later Encodes reuse the primed encoder's
// buffer.
func TestGobEncodeResultDoesNotAliasPool(t *testing.T) {
	c := Gob{}
	var blobs, snapshots [][]byte
	for i := 0; i < 3; i++ { // the first is a fresh encoder's, the rest a primed one's
		blob, err := c.Encode(skiRental{Shop: "keep", Brand: fmt.Sprint("me", i)})
		if err != nil {
			t.Fatal(err)
		}
		blobs, snapshots = append(blobs, blob), append(snapshots, bytes.Clone(blob))
	}
	for i := 0; i < 64; i++ {
		if _, err := c.Encode(skiRental{Shop: "overwrite", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range blobs {
		if !bytes.Equal(blobs[i], snapshots[i]) {
			t.Fatalf("Encode result %d was clobbered by buffer reuse", i)
		}
	}
}

// TestGobStreamsAreReused pins the point of the exercise: after the
// first event of a type and the first blob of a prefix, no Encode or
// Decode builds a gob stream — shown by what they allocate.
func TestGobStreamsAreReused(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	resetGobCaches(t)
	c := Gob{}
	ev := skiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}
	blob, err := c.Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(ev)
	if _, err := c.Decode(blob, typ); err != nil {
		t.Fatal(err)
	}
	// A fresh gob.Decoder alone is some 190 allocations on this event, a
	// fresh gob.Encoder some 20.
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Encode(ev) }); n > 4 {
		t.Errorf("Encode allocates %.0f/op on a primed type", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Decode(blob, typ) }); n > 12 {
		t.Errorf("Decode allocates %.0f/op behind a primed prefix", n)
	}
	// skiRental decodes through a plan; rich is what keeps a decoder.
	nested := rich{In: inner{1, "in"}, List: []inner{{2, "l"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}}
	blob, typ = freshEncode(t, nested), reflect.TypeOf(nested)
	if _, err := c.Decode(blob, typ); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Decode(blob, typ) }); n > 17 {
		t.Errorf("Decode allocates %.0f/op on a kept decoder (measured 13; 14 with a copy of the value)", n)
	}
}

// nested holds an interface-typed field next to a field of static type
// foo2, so that a value can put a foo2 behind the interface without
// gob sending foo2's descriptor again — and foo2 holds an interface
// itself. gob then splices the descriptor of that inner value's type
// into the middle of the one value message.
type nested struct {
	Static foo2
	Extra  any
}

type foo2 struct {
	A     int
	Inner any
}

type qux struct{ D int }

func init() {
	gob.Register(foo2{})
	gob.Register(qux{})
}

// TestGobInterfaceTypesAreNeverReused is the reason poolable exists. A
// stream that has been through a value message with a spliced-in
// descriptor remembers that descriptor: a reused encoder would leave it
// out of the next blob, a reused decoder would accept a blob that lacks
// it. Both must behave as fresh streams do.
func TestGobInterfaceTypesAreNeverReused(t *testing.T) {
	resetGobCaches(t)
	c := Gob{}
	ev := nested{Extra: foo2{A: 1, Inner: qux{D: 2}}}
	typ := reflect.TypeOf(ev)

	// What a reused standard-library encoder emits second: the same
	// value message minus qux's descriptor.
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	if err := enc.Encode(ev); err != nil {
		t.Fatal(err)
	}
	whole := bytes.Clone(stream.Bytes())
	value, ok := splitBlob(whole)
	if !ok {
		t.Fatal("the value does not fit one message; the test is void")
	}
	stream.Reset()
	if err := enc.Encode(ev); err != nil {
		t.Fatal(err)
	}
	leaning := append(bytes.Clone(whole[:value]), stream.Bytes()...)
	if _, err := freshDecode(leaning, typ); err == nil {
		t.Fatal("a fresh decoder accepts the leaning blob; the test is void")
	}

	for i := 0; i < 3; i++ {
		blob, err := c.Encode(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, whole) {
			t.Fatalf("Encode %d: blob differs from a fresh encoder's", i)
		}
		if out, err := c.Decode(blob, typ); err != nil || !reflect.DeepEqual(out, ev) {
			t.Fatalf("Decode %d: %+v, %v", i, out, err)
		}
		if _, err := c.Decode(leaning, typ); err == nil {
			t.Fatalf("Decode %d accepted a blob that leans on an earlier blob's descriptor", i)
		}
	}
}

// TestGobDecodePrefixCacheIsBounded sends more distinct descriptor
// prefixes than Decode remembers: every blob still decodes, and the
// cache stops growing at the cap.
func TestGobDecodePrefixCacheIsBounded(t *testing.T) {
	resetGobCaches(t)
	c := Gob{}
	typ := reflect.TypeOf(bikeRental{})
	cached := func() int {
		decPrefixes.RLock()
		defer decPrefixes.RUnlock()
		return len(decPrefixes.m)
	}
	for i := 0; i < maxDecPrefixes+20; i++ {
		// A sender-side type that differs from bikeRental in a field the
		// receiver ignores, so each has descriptors of its own.
		sender := reflect.New(reflect.StructOf([]reflect.StructField{
			{Name: "Shop", Type: reflect.TypeOf("")},
			{Name: "Price", Type: reflect.TypeOf(0.0)},
			{Name: fmt.Sprint("Extra", i), Type: reflect.TypeOf(0)},
		})).Elem()
		sender.Field(0).SetString("shop")
		sender.Field(1).SetFloat(float64(i))
		blob := freshEncode(t, sender.Interface())
		for pass := 0; pass < 2; pass++ {
			out, err := c.Decode(blob, typ)
			if err != nil {
				t.Fatalf("prefix %d pass %d: %v", i, pass, err)
			}
			if want := (bikeRental{Shop: "shop", Price: float64(i)}); out != want {
				t.Fatalf("prefix %d pass %d: got %+v", i, pass, out)
			}
		}
		if want := min(i+1, maxDecPrefixes); cached() != want {
			t.Fatalf("after %d prefixes the cache holds %d, want %d", i+1, cached(), want)
		}
	}
	long := make([]byte, maxDecPrefixLen+1)
	if _, err := c.Decode(long, typ); err == nil {
		t.Fatal("zeros decoded")
	}
}

func TestGobFraming(t *testing.T) {
	for _, x := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		b := appendGobUint(nil, x)
		if got, w := gobUint(append(b, 0xaa)); got != x || w != len(b) {
			t.Errorf("gobUint(appendGobUint(%#x)) = %#x, width %d of %d", x, got, w, len(b))
		}
	}
	blob := freshEncode(t, skiRental{Shop: "s"})
	n, ok := splitBlob(blob)
	if !ok || n == 0 || n >= len(blob) {
		t.Fatalf("splitBlob(valid) = %d, %v", n, ok)
	}
	for _, bad := range [][]byte{
		nil,
		blob[:n],                               // descriptors, no value
		blob[:len(blob)-1],                     // truncated value
		append(bytes.Clone(blob), 0),           // trailing byte
		append(bytes.Clone(blob), blob[n:]...), // two values
		{0xf7, 1, 2},                           // a count of nine bytes
		{0},                                    // empty message
	} {
		if _, ok := splitBlob(bad); ok {
			t.Errorf("splitBlob accepted %x", bad)
		}
	}
	descs, reuse := poolable(blob[:n])
	if _, none := poolable(nil); !reuse || !none {
		t.Error("interface-free descriptors not poolable")
	}
	if len(descs) != 1 || descs[0].def.StructT == nil || len(descs[0].def.StructT.Field) != 4 || descs[0].def.StructT.Field[2].Name != "Price" {
		t.Errorf("skiRental's descriptors parse as %+v", descs)
	}
	anyBlob := freshEncode(t, withAny{})
	n, ok = splitBlob(anyBlob)
	if _, reuse := poolable(anyBlob[:n]); !ok || reuse {
		t.Errorf("descriptors naming an interface poolable (framed %v)", ok)
	}
	if _, reuse := poolable([]byte{3, 0x7f, 0xff, 0xff}); reuse {
		t.Error("unparseable descriptor poolable")
	}
}

// FuzzGobDecodeMatchesFresh holds Gob.Decode to the standard library on
// arbitrary bytes: with caches cold or warm, it reports an error exactly
// when a fresh decoder over the whole blob does, and otherwise the same
// value. Caches carry over from one input to the next, as they do from
// one sender's blob to the next in a running peer, until they fill: a
// full cache is emptied, or every later prefix would decode fresh and
// leave kept decoders and plans untested. Every input is decoded as
// every type, so each seed is also a blob of one type decoded as
// another: the flat types take a decode plan, or show why they do not
// (plan_test.go).
//
// The seeds are built when the target starts, after the package's tests
// have run, and gob numbers types per process in the order they are
// first encoded: a type first encoded earlier may get a one-byte id
// where it would otherwise get a two-byte one, so which tests run first
// (files in name order) sets the seed blobs' lengths and the number of
// seeds.
func FuzzGobDecodeMatchesFresh(f *testing.F) {
	at := time.Date(2002, 7, 2, 9, 30, 0, 0, time.FixedZone("CEST", 7200))
	seeds := [][]byte{
		freshEncode(f, skiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}),
		freshEncode(f, bikeRental{Shop: "b", Price: 3}),
		freshEncode(f, rich{In: inner{1, "in"}, List: []inner{{2, "l"}}, One: map[string]int{"k": 4}, Ptr: &inner{5, "p"}, At: at}),
		freshEncode(f, withAny{Label: "l", Extra: foo{A: 1}}),
		freshEncode(f, kinds{B: true, I: -1, I8: -128, I16: 300, I32: -70000, I64: math.MinInt64, U: 1, U8: 255, U16: 65535,
			U32: 1 << 31, U64: math.MaxUint64, P: 9, F32: -1.5, F64: math.Inf(-1), S: "s", Raw: []byte{0, 1}, L: -2, T: "t"}),
		withEmptyRaw(f),
		freshEncode(f, wideKinds{I: 1, I8: 127, U8: 1, F32: float64(math.MaxFloat32), F64: math.NaN(), Raw: []byte("raw"), T: "wide"}),
		freshEncode(f, wideKinds{I8: 128, I16: -40000, I32: 1 << 40, U8: 256, U16: 1 << 20, U32: 1 << 33, F32: math.MaxFloat64, L: 1 << 15}),
		freshEncode(f, promoted{embedded{I64: 3, U: 4}, "p"}),
		unexportName(f, shouting{Sxyzzy: "hidden", I64: 5}),
		freshEncode(f, pointy{I64: new(int64), S: new(string), Raw: []byte{7}}),
	}
	for _, blob := range seeds {
		f.Add(blob)
		for n := 0; n < len(blob); n += 7 {
			f.Add(blob[:n])
		}
		for i := range blob { // one bit per byte, descriptors and value alike
			flipped := bytes.Clone(blob)
			flipped[i] ^= 1 << (i % 8)
			f.Add(flipped)
		}
	}
	skiValue, _ := splitBlob(seeds[0])
	bikeValue, _ := splitBlob(seeds[1])
	f.Add(append(bytes.Clone(seeds[0][:skiValue]), seeds[1][bikeValue:]...))
	f.Add(append(bytes.Clone(seeds[1][:bikeValue]), seeds[0][skiValue:]...))

	types := []any{skiRental{}, bikeRental{}, rich{}, kinds{}, wideKinds{}, fewKinds{}, promoted{}, hidden{}, pointy{}, withText{}}
	f.Fuzz(func(t *testing.T, data []byte) {
		decPrefixes.Lock()
		if len(decPrefixes.m) >= maxDecPrefixes {
			clear(decPrefixes.m)
		}
		decPrefixes.Unlock()
		for _, v := range types {
			typ := reflect.TypeOf(v)
			want, wantErr := freshDecode(data, typ)
			for pass := 0; pass < 2; pass++ {
				got, err := Gob{}.Decode(data, typ)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%v pass %d: Decode error %v, fresh decoder error %v", typ, pass, err, wantErr)
				}
				if err == nil && !sameValue(got, want) {
					t.Fatalf("%v pass %d: Decode %#v, fresh decoder %#v", typ, pass, got, want)
				}
				if err == nil && !cappedBytes(got) {
					t.Fatalf("%v pass %d: a []byte field of %#v has capacity past its length", typ, pass, got)
				}
			}
		}
	})
}

// cappedBytes reports whether every []byte field of a struct v has no
// capacity past its length, as gob's own decoder leaves it, so that an
// append cannot write into whatever follows the field's bytes.
func cappedBytes(v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		return true
	}
	for i := range rv.NumField() {
		f := rv.Field(i)
		if f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8 && f.Cap() != f.Len() {
			return false
		}
	}
	return true
}

// sameValue is reflect.DeepEqual, except that a float field equals one
// with the same bits, so that a NaN equals itself. (Comparing gob
// renderings instead would not tell a nil []byte from an empty one.)
// No type the tests decode holds a float deeper than a field.
func sameValue(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() || va.Kind() != reflect.Struct {
		return reflect.DeepEqual(a, b)
	}
	ca, cb := reflect.New(va.Type()).Elem(), reflect.New(vb.Type()).Elem()
	ca.Set(va)
	cb.Set(vb)
	for i := range ca.NumField() {
		fa, fb := ca.Field(i), cb.Field(i)
		if fa.CanFloat() && fa.CanSet() && math.Float64bits(fa.Float()) == math.Float64bits(fb.Float()) {
			fa.SetFloat(0)
			fb.SetFloat(0)
		}
	}
	return reflect.DeepEqual(ca.Interface(), cb.Interface())
}
