package codec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Gob is the event codec. A blob is what a fresh gob.Encoder
// emits for the concrete event value: the type-descriptor messages of
// the event type (negative type ids) followed by one value message. It
// decodes standalone with a fresh gob.Decoder on whichever peer it
// lands on, so blobs can be stored, replayed and forwarded verbatim.
//
// # Compile once
//
// gob compiles its encode and decode engines per Encoder and per
// Decoder, which on a 2 kB event costs ten times the transcoding
// itself. Gob therefore keeps streams that have already been through
// the descriptors and moves only the value message through them:
//
//   - Encode keeps, per event type, encoders that have emitted the
//     type's descriptors, and those descriptor bytes. A blob is the
//     descriptor bytes followed by the value message such an encoder
//     writes — byte for byte what a fresh encoder writes.
//   - Decode splits the blob where the value message starts and keeps
//     decoders that have consumed exactly the bytes before it, keyed by
//     (event type, those bytes). The bytes are the key, not the type
//     alone: gob numbers types per process in order of first use, so
//     two senders may describe one type under different ids, and a
//     decoder knows a type only under the ids it was told.
//
// Both halves skip gob's reflection engines for a flat event type — a
// struct of gob's builtin bools, integers, floats, strings and byte
// slices — with a flatPlan compiled from the type's descriptor
// (plan.go): Encode writes the value message itself, Decode reads it
// straight from the blob.
//
// A decoder or encoder earns its place by first doing the whole job:
// the first blob of a descriptor prefix is decoded whole by a fresh
// decoder, which is then kept; the first event of a type is encoded by
// a fresh encoder, which is then kept. That fresh path also takes every
// blob that is not descriptors-then-one-value-message (trailing bytes,
// malformed framing, a value that spans messages), every blob a kept
// decoder fails on — the kept decoder is dropped and the fresh
// decoder's verdict is the one returned — and every type whose
// descriptors mention an interface (see poolable). The number of
// descriptor prefixes remembered is capped by maxDecPrefixes; blobs
// with further prefixes decode fresh.
//
// # Plans
//
// A kept encoder still walks the value through gob's reflection engine
// and writes into its own buffer, which Encode then copies; a kept
// decoder copies the value message out of the blob and builds reflect
// headers field by field. When the type's descriptors are one flat
// struct, Encode compiles a flatPlan from them when it keeps the type,
// and writes every later value message with it, straight into the
// caller's buffer, byte for byte what gob writes. When a remembered
// prefix describes one flat struct, Decode compiles one for it, which
// reads the value message straight from the blob; a blob the plan
// declines takes the kept decoder, whose verdict is gob's.
type Gob struct{}

// Name is the codec's name, "gob".
func (Gob) Name() string { return "gob" }

const (
	// maxDecPrefixes caps the descriptor prefixes Decode remembers, so a
	// sender inventing prefixes cannot grow the cache; honest peers need
	// one per (event type, sending program).
	maxDecPrefixes = 128
	// maxDecPrefixLen caps the length of a remembered prefix; the ski
	// rental event's is 69 bytes.
	maxDecPrefixLen = 4 << 10
)

// encStream is an encoder and the buffer it writes to.
type encStream struct {
	enc *gob.Encoder
	buf bytes.Buffer
}

// encType is what Encode knows about one event type.
type encType struct {
	// reuse is false if encoders of this type must not be reused.
	reuse bool
	// prefix is the descriptor messages every blob of the type starts
	// with.
	prefix []byte
	// plan, if not nil, writes the type's value messages without an
	// encoder.
	plan *flatPlan
	// primed holds encStreams that have emitted prefix.
	primed sync.Pool
}

var encTypes sync.Map // reflect.Type → *encType

// Encode serialises an event value. Pointers are followed: the blob of
// *T is the blob of T.
func (g Gob) Encode(event any) ([]byte, error) { return g.AppendEncode(nil, event) }

// AppendEncode appends the blob of event to dst, as Encode would return
// it, and returns the extended slice: a blob written into room the
// caller has — an event message's payload room — costs no allocation,
// and Encode's, appended to nil, exactly one. On an error it returns
// nil.
func (Gob) AppendEncode(dst []byte, event any) ([]byte, error) {
	v := reflect.ValueOf(event)
	for v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if !v.IsValid() || v.Kind() == reflect.Pointer {
		return nil, ErrNilEvent
	}
	e, _ := encTypes.Load(v.Type())
	et, _ := e.(*encType)
	if et != nil && et.plan != nil {
		return et.plan.encode(dst, et.prefix, v), nil
	}
	if et != nil && et.reuse {
		if s, _ := et.primed.Get().(*encStream); s != nil {
			s.buf.Reset()
			if err := s.enc.EncodeValue(v); err == nil {
				dst = append(slices.Grow(dst, len(et.prefix)+s.buf.Len()), et.prefix...)
				dst = append(dst, s.buf.Bytes()...)
				et.primed.Put(s)
				return dst, nil
			}
			// The fresh encoder below reports the error, if it is one.
		}
	}
	s := new(encStream)
	s.enc = gob.NewEncoder(&s.buf)
	if err := s.enc.EncodeValue(v); err != nil {
		return nil, fmt.Errorf("codec: gob encode %T: %w", event, err)
	}
	out := s.buf.Bytes()
	if et == nil {
		et = new(encType)
		if n, ok := splitBlob(out); ok {
			if descs, reuse := poolable(out[:n]); reuse {
				// The descriptors are the type's own, so every wire
				// field is a field of it; one that encodes itself is
				// described as a type of its own, not a builtin, and
				// compilePlan declines it.
				et.reuse, et.prefix = true, bytes.Clone(out[:n])
				et.plan = compilePlan(v.Type(), descs)
			}
		}
		e, _ = encTypes.LoadOrStore(v.Type(), et)
		et = e.(*encType)
	}
	if dst == nil && !et.reuse {
		return out, nil // s.buf is not reused
	}
	dst = append(dst, out...)
	if et.reuse {
		et.primed.Put(s)
	}
	return dst, nil
}

// decStream is a decoder and the reader it reads from.
type decStream struct {
	dec *gob.Decoder
	src bytes.Reader
}

// decPrefix is what Decode knows about one (event type, descriptor
// prefix) pair.
type decPrefix struct {
	// reuse is false if decoders of this prefix must not be reused.
	reuse bool
	// plan, if not nil, decodes the prefix's value messages without a
	// decoder.
	plan *flatPlan
	// primed holds decStreams that have consumed the prefix.
	primed sync.Pool
}

type decKey struct {
	typ    reflect.Type
	prefix string
}

var decPrefixes = struct {
	sync.RWMutex
	m map[decKey]*decPrefix
}{m: map[decKey]*decPrefix{}}

// Decode deserialises into a value of the given type, which is required
// and concrete. The returned value's dynamic type is typ (not a pointer
// to it), and it is the object decoded into, not a copy: a plan's block
// or the value a gob decoder set (valueAt). Nothing it returns aliases
// data.
func (Gob) Decode(data []byte, typ reflect.Type) (any, error) {
	if typ == nil || typ.Kind() == reflect.Interface {
		return nil, errors.New("codec: gob decode requires a concrete type")
	}
	n, framed := splitBlob(data)
	framed = framed && n <= maxDecPrefixLen
	var dp *decPrefix
	if framed {
		decPrefixes.RLock()
		dp = decPrefixes.m[decKey{typ, string(data[:n])}]
		decPrefixes.RUnlock()
		if dp != nil && dp.plan != nil {
			if v, ok := dp.plan.decode(data[n:]); ok {
				return v, nil
			}
		}
		if dp != nil && dp.reuse {
			if s, _ := dp.primed.Get().(*decStream); s != nil {
				ptr := reflect.New(typ)
				s.src.Reset(data[n:])
				if err := s.dec.DecodeValue(ptr); err == nil {
					s.src.Reset(nil)
					dp.primed.Put(s)
					return valueAt(typ, ptr.UnsafePointer()), nil
				}
				// The fresh decoder below reports the error, if it is one.
			}
		}
	}
	s := new(decStream)
	s.src.Reset(data)
	s.dec = gob.NewDecoder(&s.src)
	ptr := reflect.New(typ)
	if err := s.dec.DecodeValue(ptr); err != nil {
		return nil, fmt.Errorf("codec: gob decode into %v: %w", typ, err)
	}
	if framed && dp == nil {
		dp = rememberPrefix(typ, data[:n])
	}
	if dp != nil && dp.reuse {
		s.src.Reset(nil)
		dp.primed.Put(s)
	}
	return valueAt(typ, ptr.UnsafePointer()), nil
}

// eface is the runtime's layout of an empty interface: the type word,
// then the data word.
type eface struct{ typ, data unsafe.Pointer }

// valueAt returns the value of type typ at p as an any whose data word
// is p: the object itself, where Interface would allocate a copy of it.
// A pointer-shaped typ is the exception: the interface holds such a
// value in its data word itself, which Interface fills without
// allocating. The type word is the one reflect.Type's data word holds.
//
// p may be the head of a block the collector does not scan (a plan's,
// see flatPlan.decode) only if every non-nil pointer word of the value
// points into that block.
func valueAt(typ reflect.Type, p unsafe.Pointer) any {
	if pointerShaped(typ) {
		return reflect.NewAt(typ, p).Elem().Interface()
	}
	t := any(typ)
	return *(*any)(unsafe.Pointer(&eface{(*eface)(unsafe.Pointer(&t)).data, p}))
}

// pointerShaped reports whether an interface holds a value of type t in
// its data word itself: a pointer, map, chan, func or unsafe.Pointer, or
// a struct or one-element array holding only one of those. The runtime
// is asked, not the rule restated: the zero of such a type is a nil data
// word, and that of any other type points to a zero value.
func pointerShaped(t reflect.Type) bool {
	if t.Size() != unsafe.Sizeof(uintptr(0)) {
		return false
	}
	z := reflect.Zero(t).Interface()
	return (*eface)(unsafe.Pointer(&z)).data == nil
}

// rememberPrefix records a prefix a fresh decoder has just decoded a
// typ through, unless the cache is full.
func rememberPrefix(typ reflect.Type, prefix []byte) *decPrefix {
	decPrefixes.RLock()
	full := len(decPrefixes.m) >= maxDecPrefixes // and stays so: nothing is evicted
	decPrefixes.RUnlock()
	if full {
		return nil
	}
	descs, reuse := poolable(prefix)
	dp := &decPrefix{reuse: reuse}
	if reuse {
		dp.plan = compilePlan(typ, descs)
	}
	key := decKey{typ, string(prefix)}
	decPrefixes.Lock()
	defer decPrefixes.Unlock()
	if old := decPrefixes.m[key]; old != nil {
		return old
	}
	if len(decPrefixes.m) >= maxDecPrefixes {
		return nil
	}
	decPrefixes.m[key] = dp
	return dp
}

// gobUint parses gob's unsigned integer encoding at the head of b the
// way encoding/gob does (a byte up to 0x7f is the value; otherwise the
// byte is the negated count of big-endian bytes that follow) and
// returns the value and the bytes consumed, 0 if b is malformed.
func gobUint(b []byte) (x uint64, width int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// appendGobUint is the inverse of gobUint.
func appendGobUint(b []byte, x uint64) []byte {
	if x <= 0x7f {
		return append(b, byte(x))
	}
	n := 0
	for y := x; y > 0; y >>= 8 {
		n++
	}
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// gobMessage returns the type id word (gob's signed encoding: odd means
// negative) and body of the length-prefixed message at the head of b,
// and the length of the whole message, 0 if b does not hold one.
func gobMessage(b []byte) (id uint64, body []byte, size int) {
	n, w := gobUint(b)
	if w == 0 || n == 0 || n > uint64(len(b)-w) {
		return 0, nil, 0
	}
	id, iw := gobUint(b[w : w+int(n)])
	if iw == 0 {
		return 0, nil, 0
	}
	return id, b[w+iw : w+int(n)], w + int(n)
}

// splitBlob finds the offset of the value message in a blob that is
// zero or more type-descriptor messages followed by exactly one value
// message and nothing else; ok is false for any other blob.
func splitBlob(blob []byte) (prefixLen int, ok bool) {
	for off := 0; ; {
		id, _, size := gobMessage(blob[off:])
		if size == 0 {
			return 0, false
		}
		if id&1 == 0 { // a non-negative id: the value
			return off, off+size == len(blob)
		}
		off += size
	}
}

// The ids encoding/gob's wire format fixes for the interface type and
// for the descriptor type itself.
const (
	gobInterfaceID = 8
	gobWireTypeID  = 16
)

// wireDef mirrors the type descriptor of gob's wire format (the
// wireType of the encoding/gob package documentation) as far as it
// names other types. gob skips the fields left out, but cannot skip a
// struct-typed one, hence the CommonTypes.
type wireDef struct {
	ArrayT, SliceT *struct {
		CommonType wireCommon
		Elem       int
	}
	StructT *struct {
		CommonType wireCommon
		Field      []struct {
			Name string
			Id   int
		}
	}
	MapT *struct {
		CommonType wireCommon
		Key, Elem  int
	}
	GobEncoderT, BinaryMarshalerT, TextMarshalerT *struct{ CommonType wireCommon }
}

type wireCommon struct{ Id int }

// descriptor is one parsed type-descriptor message.
type descriptor struct {
	// id is the message's type id word: gob's encoding of the negated
	// id of the type it describes.
	id  uint64
	def wireDef
}

// poolable parses the descriptor messages of a prefix and reports
// whether a stream that has been through them is in a state that later
// value messages cannot change, which is what makes it interchangeable
// with a fresh stream taken through the same messages. Interface values
// are the one thing that breaks this: gob splices the descriptor of an
// interface value's dynamic type into the value message, the stream
// remembers it, and a later value message may then lean on a descriptor
// its own blob does not carry — an encoder would emit such a blob, a
// decoder would accept one. So a prefix is poolable only if every
// descriptor in it parses and none names the interface type as a field,
// element or key. The descriptors of a poolable prefix are returned, in
// order.
func poolable(prefix []byte) (descs []descriptor, ok bool) {
	for len(prefix) > 0 {
		id, def, size := gobMessage(prefix)
		if size == 0 {
			return nil, false
		}
		prefix = prefix[size:]
		// Re-frame the descriptor as a value of gob's own descriptor
		// type, so that gob parses it.
		msg := appendGobUint(make([]byte, 0, len(def)+4), uint64(len(def)+1))
		msg = append(append(msg, gobWireTypeID<<1), def...)
		var d wireDef
		if gob.NewDecoder(bytes.NewReader(msg)).Decode(&d) != nil {
			return nil, false
		}
		switch {
		case d.ArrayT != nil && d.ArrayT.Elem == gobInterfaceID,
			d.SliceT != nil && d.SliceT.Elem == gobInterfaceID,
			d.MapT != nil && (d.MapT.Key == gobInterfaceID || d.MapT.Elem == gobInterfaceID):
			return nil, false
		case d.StructT != nil:
			for _, f := range d.StructT.Field {
				if f.Id == gobInterfaceID {
					return nil, false
				}
			}
		}
		descs = append(descs, descriptor{id, d})
	}
	return descs, true
}
