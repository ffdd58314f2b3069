package codec

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"math"
	"math/bits"
	"reflect"
	"strings"
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

// flatPlan decodes the value messages of one flat struct type, behind
// one descriptor prefix, straight from the blob. It allocates the value,
// one string arena, one copy per non-empty []byte field and the
// interface copy of the value; a kept decoder also copies the whole
// value message and allocates per field. It is compiled from the
// prefix's one StructT descriptor once a fresh decoder has accepted a
// blob of it, so gob has already approved the pairing of wire type and
// local type; the plan only has to walk the value message the way gob
// does. It declines whatever it does not reproduce exactly, and Decode
// hands that blob to gob.
type flatPlan struct {
	// id is the type id word of the value messages: the descriptor's,
	// negated.
	id uint64
	// fields are the wire fields, by field number.
	fields []flatField
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
// ignored or decoded into a non-pointer field of typ itself.
func compilePlan(typ reflect.Type, descs []descriptor) *flatPlan {
	if len(descs) != 1 || typ.Kind() != reflect.Struct || decodesItself(typ) {
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
	p := &flatPlan{id: id, fields: make([]flatField, len(st.Field))}
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

// decode decodes msg, one value message, into a new typ. It declines
// (ok false) where gob might not decode msg as it would: a type id other
// than the struct's, a field number past the last field, a malformed
// integer, a length past the message, a value a narrower kind overflows,
// and bytes after the terminator or no terminator. Nothing it returns
// aliases msg.
func (p *flatPlan) decode(msg []byte, typ reflect.Type) (v any, ok bool) {
	id, body, _ := gobMessage(msg)
	if id != p.id {
		return nil, false
	}
	strs, ok := p.walk(body, reflect.Value{}, nil)
	if !ok {
		return nil, false
	}
	ptr := reflect.New(typ)
	// One allocation that every string field is a slice of.
	var arena strings.Builder
	arena.Grow(strs)
	p.walk(body, ptr.Elem(), &arena)
	return ptr.Elem().Interface(), true
}

// walk reads body, a struct's field deltas and values up to the zero
// delta that ends it, and reports whether decode accepts it and how many
// bytes its decoded strings hold. If out is valid, walk also sets out's
// fields, cutting the strings from arena, which has room for them.
func (p *flatPlan) walk(body []byte, out reflect.Value, arena *strings.Builder) (strs int, ok bool) {
	set := out.IsValid()
	for field := -1; ; {
		delta, w := gobUint(body)
		if w == 0 {
			return 0, false
		}
		body = body[w:]
		if delta == 0 {
			return strs, len(body) == 0
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
		case gobStringID:
			strs += len(b)
		}
		if !set {
			continue
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
			if len(b) == 0 {
				dst.SetLen(0) // as gob does: a nil slice stays nil
			} else {
				dst.SetBytes(bytes.Clone(b))
			}
		case gobStringID:
			start := arena.Len()
			arena.Write(b)
			dst.SetString(arena.String()[start:])
		}
	}
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
