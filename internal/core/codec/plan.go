package codec

import (
	"encoding"
	"encoding/gob"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"unsafe"
)

// The ids encoding/gob's wire format fixes for the builtin types a
// decode plan reads.
const (
	gobBoolID   = 1
	gobIntID    = 2
	gobUintID   = 3
	gobFloatID  = 4
	gobBytesID  = 5
	gobStringID = 6
)

// flatPlan encodes and decodes the value messages of one flat struct
// type, behind one descriptor prefix, without a gob engine. Encoding
// (encode), it writes what gob's encoder writes for a value of the type
// into the caller's buffer; Encode compiles it from the type's own
// descriptors. Decoding, it reads a value message straight from the
// blob into one allocation: a block headed by the value itself, which
// every non-empty string and []byte field is a piece of the rest of,
// returned as an any whose data word is the block (valueAt). A kept
// decoder also copies the whole value message and allocates per field.
// Decode compiles a plan from the prefix's one StructT descriptor once
// a fresh decoder has accepted a blob of it. That blob's value need not
// have been of the descriptor's type — gob also decodes a struct from the
// ids of its own builtin struct types — so compilePlan makes the checks
// gob makes when it pairs a wire struct with a local one, and the plan
// then walks the value message the way gob does. It declines whatever
// it does not reproduce exactly, and Decode hands that blob to gob.
type flatPlan struct {
	// id is the type id word of the value messages: the descriptor's,
	// negated.
	id uint64
	// fields are the wire fields, by field number.
	fields []flatField
	// typ is the local type the plan decodes into.
	typ reflect.Type
}

// flatField is one wire field of a flatPlan.
type flatField struct {
	// wire is the gob builtin id of the field's type, gobBoolID to
	// gobStringID.
	wire int
	// index is the local field gob decodes it into, -1 if gob ignores
	// the wire field.
	index int
	// local is a zero of the local field's type: its Overflow methods
	// are gob's range checks for a narrower kind.
	local reflect.Value
}

// compilePlan returns the plan for decoding typ behind the parsed
// descriptors of one prefix, or nil if the prefix is not one struct of
// gob's builtin bool, int, uint, float, []byte and string fields, each
// ignored or decoded into a non-pointer field of typ itself, or if gob
// refuses the pairing: no wire field matches a field of typ, and
// neither struct is empty. It also declines a pointer-shaped typ, which
// an interface holds in its data word, not at the block that word
// points to.
func compilePlan(typ reflect.Type, descs []descriptor) *flatPlan {
	if len(descs) != 1 || typ.Kind() != reflect.Struct || decodesItself(typ) || pointerShaped(typ) {
		return nil
	}
	d, st := descs[0].def, descs[0].def.StructT
	if st == nil || d.ArrayT != nil || d.SliceT != nil || d.MapT != nil ||
		d.GobEncoderT != nil || d.BinaryMarshalerT != nil || d.TextMarshalerT != nil {
		return nil
	}
	// gob reads a type id as an int32: past that, the value message's id
	// is not the descriptor's.
	id := descs[0].id + 1
	if id/2 > math.MaxInt32 {
		return nil
	}
	p := &flatPlan{id: id, fields: make([]flatField, len(st.Field)), typ: typ}
	matched := 0
	for i, wf := range st.Field {
		if wf.Id < gobBoolID || wf.Id > gobStringID {
			return nil
		}
		p.fields[i] = flatField{wire: wf.Id, index: -1}
		// gob's match: the field FieldByName finds, if the name is
		// exported; it ignores the wire field otherwise.
		sf, ok := typ.FieldByName(wf.Name)
		if !ok || !sf.IsExported() {
			continue
		}
		if len(sf.Index) != 1 || !setsBuiltin(sf.Type, wf.Id) {
			return nil
		}
		p.fields[i].index, p.fields[i].local = sf.Index[0], reflect.Zero(sf.Type)
		matched++
	}
	if matched == 0 && len(st.Field) > 0 && typ.NumField() > 0 {
		return nil
	}
	return p
}

var selfDecoders = []reflect.Type{
	reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextUnmarshaler](),
}

// decodesItself reports whether gob hands values of t, or of *t, to a
// method of theirs.
func decodesItself(t reflect.Type) bool {
	for _, i := range selfDecoders {
		if t.Implements(i) || reflect.PointerTo(t).Implements(i) {
			return true
		}
	}
	return false
}

// setsBuiltin reports whether the plan sets a field of type t from a
// wire field of builtin type id wire: t is a kind gob decodes that
// builtin into, and not a pointer.
func setsBuiltin(t reflect.Type, wire int) bool {
	if decodesItself(t) {
		return false
	}
	switch t.Kind() {
	case reflect.Bool:
		return wire == gobBoolID
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return wire == gobIntID
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return wire == gobUintID
	case reflect.Float32, reflect.Float64:
		return wire == gobFloatID
	case reflect.Slice:
		return wire == gobBytesID && t.Elem().Kind() == reflect.Uint8
	case reflect.String:
		return wire == gobStringID
	}
	return false
}

// decode decodes msg, one value message, into a new value of the plan's
// type. It declines (ok false) where gob might not decode msg as it
// would: a type id other than the struct's, a field number past the last
// field, a malformed integer, a length past the message, a value a
// narrower kind overflows, and bytes after the terminator or no
// terminator. Nothing it returns aliases msg, which may be a piece of a
// read chunk or of a frame a rendezvous forwards, and no two fields it
// returns share a byte.
//
// The value is one allocation: a zeroed block that the value heads,
// with its strings and bytes cut from the rest, returned by valueAt.
// The block is a []byte, which the collector does not scan; that is
// sound because every pointer word decode sets points into the block
// itself, and any pointer to it keeps all of it alive. The fields it
// does not set, pointers among them, stay zero. A string or []byte
// field makes the head 16 bytes or more, so a block is 8 bytes or at
// least 16, both of which the allocator 8-aligns: the head holds any
// type. An empty struct has no block.
func (p *flatPlan) decode(msg []byte) (v any, ok bool) {
	id, body, _ := gobMessage(msg)
	if id != p.id {
		return nil, false
	}
	size, ok := p.walk(body, reflect.Value{}, nil)
	if !ok {
		return nil, false
	}
	if p.typ.Size() == 0 {
		return reflect.Zero(p.typ).Interface(), true
	}
	head := int(p.typ.Size()+7) &^ 7
	block := make([]byte, head+size)
	p.walk(body, reflect.NewAt(p.typ, unsafe.Pointer(&block[0])).Elem(), block[head:])
	return valueAt(p.typ, unsafe.Pointer(&block[0])), true
}

// walk reads body, a struct's field deltas and values up to the zero
// delta that ends it, and reports whether decode accepts it and how many
// bytes its non-empty strings and []byte fields hold. If out is valid —
// a zero value — walk also sets its fields, copying each of those
// strings and slices into the next piece of block, which has room for
// them all. block is written front to back, each piece once, before the
// field that piece becomes is set: no piece is written after a string
// is cut from it, and a []byte piece's capacity ends where the piece
// does, so an append to it cannot write into the next one.
func (p *flatPlan) walk(body []byte, out reflect.Value, block []byte) (size int, ok bool) {
	set := out.IsValid()
	for field := -1; ; {
		delta, w := gobUint(body)
		if w == 0 {
			return 0, false
		}
		body = body[w:]
		if delta == 0 {
			return size, len(body) == 0
		}
		if delta >= uint64(len(p.fields)-field) {
			return 0, false
		}
		field += int(delta)
		f := &p.fields[field]
		x, w := gobUint(body)
		if w == 0 {
			return 0, false
		}
		body = body[w:]
		var b []byte
		if f.wire == gobBytesID || f.wire == gobStringID {
			if x > uint64(len(body)) {
				return 0, false
			}
			b, body = body[:x], body[x:]
		}
		if f.index < 0 {
			continue
		}
		switch f.wire { // gob's range checks
		case gobIntID:
			if f.local.OverflowInt(gobInt(x)) {
				return 0, false
			}
		case gobUintID:
			if f.local.OverflowUint(x) {
				return 0, false
			}
		case gobFloatID:
			if f.local.OverflowFloat(gobFloat(x)) {
				return 0, false
			}
		}
		if !set {
			size += len(b)
			continue
		}
		// An empty string or []byte stays as gob leaves it: "" and nil.
		var piece []byte
		if len(b) > 0 {
			piece, block = block[:len(b):len(b)], block[len(b):]
			copy(piece, b)
		}
		dst := out.Field(f.index)
		switch f.wire {
		case gobBoolID:
			dst.SetBool(x != 0)
		case gobIntID:
			dst.SetInt(gobInt(x))
		case gobUintID:
			dst.SetUint(x)
		case gobFloatID:
			dst.SetFloat(gobFloat(x))
		case gobBytesID:
			dst.SetBytes(piece)
		case gobStringID:
			dst.SetString(unsafe.String(unsafe.SliceData(piece), len(piece)))
		}
	}
}

// encode appends the blob of v, a value of the plan's type, to dst:
// prefix, the type's descriptors, then the value message as gob's
// encoder writes it — its length, the type id, each field gob sends as
// its delta from the field sent before it and its value, and the zero
// delta that ends the struct. gob sends no zero field: not false, 0,
// -0.0, "", nor an empty or nil []byte. encode reads the fields twice,
// once to size the message and its length, which precedes it, and once
// to write it, so dst grows once. A published event is not written
// while it is encoded, so the two reads agree.
func (p *flatPlan) encode(dst, prefix []byte, v reflect.Value) []byte {
	size, last := gobUintLen(p.id)+1, -1 // the type id and the end
	for i := range p.fields {
		if x, b, ok := p.fields[i].value(v); ok {
			size += gobUintLen(uint64(i-last)) + gobUintLen(x) + len(b)
			last = i
		}
	}
	dst = slices.Grow(dst, len(prefix)+gobUintLen(uint64(size))+size)
	dst = appendGobUint(append(dst, prefix...), uint64(size))
	dst = appendGobUint(dst, p.id)
	last = -1
	for i := range p.fields {
		if x, b, ok := p.fields[i].value(v); ok {
			dst = appendGobUint(appendGobUint(dst, uint64(i-last)), x)
			dst = append(dst, b...)
			last = i
		}
	}
	return append(dst, 0)
}

// value returns what gob writes for the field of v: the field's value
// in gob's unsigned form, or the length of a string or []byte and its
// bytes. ok is false for a zero, which gob does not send.
func (f *flatField) value(v reflect.Value) (x uint64, b []byte, ok bool) {
	fv := v.Field(f.index)
	switch f.wire {
	case gobBoolID:
		return 1, nil, fv.Bool()
	case gobIntID:
		i := fv.Int()
		if i < 0 {
			return uint64(^i)<<1 | 1, nil, true
		}
		return uint64(i) << 1, nil, i != 0
	case gobUintID:
		x = fv.Uint()
		return x, nil, x != 0
	case gobFloatID:
		fl := fv.Float()
		return bits.ReverseBytes64(math.Float64bits(fl)), nil, fl != 0
	case gobBytesID:
		b = fv.Bytes()
	case gobStringID:
		str := fv.String()
		b = unsafe.Slice(unsafe.StringData(str), len(str))
	}
	return uint64(len(b)), b, len(b) > 0
}

// gobUintLen is the length of appendGobUint's encoding of x.
func gobUintLen(x uint64) int {
	if x <= 0x7f {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// gobInt decodes gob's signed integer encoding: the sign in the low bit,
// the magnitude, complemented if negative, above it.
func gobInt(x uint64) int64 {
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// gobFloat decodes gob's float encoding: the IEEE 754 bits, byte-reversed.
func gobFloat(x uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(x))
}
