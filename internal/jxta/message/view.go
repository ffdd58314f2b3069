package message

// view.go reads a received frame where it lies. A View is what the
// endpoint routes a frame by and what a forwarding hop decides on, and
// Forward writes the frame a hop sends on out of the received bytes, so
// a hop that only forwards builds no Message. Neither allocates, and
// neither writes the frame it reads.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// Offsets into a frame's header (the wire format in codec.go).
const (
	offID   = len(wireMagic) + 1
	offTTL  = offID + 2*jid.WireSize
	offPath = offTTL + 2 // behind the TTL and the path length
)

// View is a read-only view of one wire frame, checked as Unmarshal
// checks it: its header and elements are read from the frame's own
// bytes, as they are asked for. The accessors that share a Message's
// names answer as the decoded message's would. A View holds the frame
// and writes none of it; the frame belongs to whoever received it (see
// the package comment, "Received frames"), and the strings and payloads
// a View hands out are pieces of it.
type View struct {
	frame []byte
	ttl   uint8
	plen  uint8
	count int // elements
	elems int // offset of the first element header
	// index holds, for a frame of up to len(index) elements, where each
	// element's header is and how long its namespace and name are, so
	// that a lookup compares the names of the right lengths alone; a
	// frame of more is walked.
	index [16]indexed
}

// indexed is where an element's header is, and its names' lengths.
type indexed struct {
	at             uint32
	nsLen, nameLen uint16
}

// NewView checks frame as Unmarshal does — failing where Unmarshal
// fails, with the same error — and returns a view of it.
func NewView(frame []byte) (View, error) {
	f := frame
	if len(f) < len(wireMagic) {
		return View{}, ErrTruncated
	}
	if [4]byte(f) != wireMagic {
		return View{}, ErrBadMagic
	}
	if len(f) < offID {
		return View{}, ErrTruncated
	}
	if f[offID-1] != wireVersion {
		return View{}, fmt.Errorf("%w: %d", ErrBadVersion, f[offID-1])
	}
	v := View{frame: f}
	if err := checkID(f, offID); err != nil {
		return View{}, err
	}
	if err := checkID(f, offID+jid.WireSize); err != nil {
		return View{}, err
	}
	if len(f) < offPath {
		return View{}, ErrTruncated
	}
	v.ttl, v.plen = f[offTTL], f[offTTL+1]
	if int(v.plen) > MaxPathLen {
		return View{}, fmt.Errorf("%w: path length %d", ErrTooLarge, v.plen)
	}
	off := offPath
	for range v.plen {
		if err := checkID(f, off); err != nil {
			return View{}, err
		}
		off += jid.WireSize
	}
	var err error
	if len(f)-off < 2 {
		return View{}, ErrTruncated
	}
	count := int(binary.BigEndian.Uint16(f[off:]))
	off += 2
	if count > MaxElements {
		return View{}, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	if len(f)-off < count*minElementSize {
		return View{}, ErrTruncated // before the count sizes an allocation
	}
	v.count, v.elems = count, off
	for i := range count {
		var e indexed
		if e, off, err = skipElement(f, off); err != nil {
			return View{}, err
		}
		if i < len(v.index) {
			v.index[i] = e
		}
	}
	if off != len(f) {
		return View{}, fmt.Errorf("message: %d trailing bytes", len(f)-off)
	}
	return v, nil
}

// checkID checks the ID at off in frame.
func checkID(frame []byte, off int) error {
	if len(frame)-off < jid.WireSize {
		return ErrTruncated
	}
	if _, err := jid.FromWire(frame[off], [16]byte(frame[off+1:])); err != nil {
		return fmt.Errorf("message: bad ID: %w", err)
	}
	return nil
}

// idAt decodes the ID at off in a checked frame.
func idAt(frame []byte, off int) jid.ID {
	id, _ := jid.FromWire(frame[off], [16]byte(frame[off+1:]))
	return id
}

// skipElement checks the element whose header is at off in frame and
// returns where it is, its names' lengths and the offset behind it.
func skipElement(frame []byte, off int) (e indexed, next int, err error) {
	e.at = uint32(off)
	var lens [3]uint16 // namespace, name, MIME type
	for i := range lens {
		if len(frame)-off < 2 {
			return e, 0, ErrTruncated
		}
		lens[i] = binary.BigEndian.Uint16(frame[off:])
		if off += 2 + int(lens[i]); off > len(frame) {
			return e, 0, ErrTruncated
		}
	}
	e.nsLen, e.nameLen = lens[0], lens[1]
	if len(frame)-off < 4 {
		return e, 0, ErrTruncated
	}
	n := binary.BigEndian.Uint32(frame[off:])
	if n > MaxElementSize {
		return e, 0, fmt.Errorf("%w: element payload %d bytes", ErrTooLarge, n)
	}
	if off += 4; len(frame)-off < int(n) {
		return e, 0, ErrTruncated
	}
	return e, off + int(n), nil
}

// ID returns the message UUID.
func (v *View) ID() jid.ID { return idAt(v.frame, offID) }

// Src returns the peer that created the message.
func (v *View) Src() jid.ID { return idAt(v.frame, offID+jid.WireSize) }

// TTL returns the remaining hop budget.
func (v *View) TTL() uint8 { return v.ttl }

// pathEnd is the offset behind the path.
func (v *View) pathEnd() int { return offPath + int(v.plen)*jid.WireSize }

// Visited reports whether peer is on the frame's path.
func (v *View) Visited(peer jid.ID) bool {
	kind, uuid := byte(peer.Kind()), peer.UUID()
	for off := offPath; off < v.pathEnd(); off += jid.WireSize {
		if v.frame[off] == kind && [16]byte(v.frame[off+1:]) == uuid {
			return true
		}
	}
	return false
}

// AppendPath appends the frame's path, oldest first, to dst.
func (v *View) AppendPath(dst []jid.ID) []jid.ID {
	for off := offPath; off < v.pathEnd(); off += jid.WireSize {
		dst = append(dst, idAt(v.frame, off))
	}
	return dst
}

// elementAt reads the element whose header is at off in a checked
// frame, and returns it and the offset behind it. Its payload is capped,
// so that an append to it cannot run into the next element.
func elementAt(frame []byte, off int) (e Element, next int) {
	e.Namespace, off = shortAt(frame, off)
	e.Name, off = shortAt(frame, off)
	e.MimeType, off = shortAt(frame, off)
	n := int(binary.BigEndian.Uint32(frame[off:]))
	off += 4
	if n > 0 {
		e.Data = frame[off : off+n : off+n]
	}
	return e, off + n
}

// shortAt reads the field behind the 16-bit length at off in a checked
// frame, and returns it and the offset behind it.
func shortAt(frame []byte, off int) (string, int) {
	n := int(binary.BigEndian.Uint16(frame[off:]))
	return aliasString(frame[off+2 : off+2+n]), off + 2 + n
}

// find returns the offset of the header of the first element with the
// namespace and name. With the index, it compares the names of elements
// whose names have the lengths asked for alone.
func (v *View) find(namespace, name string) (int, bool) {
	f := v.frame
	if v.count <= len(v.index) {
		for _, e := range v.index[:v.count] {
			if int(e.nsLen) == len(namespace) && int(e.nameLen) == len(name) && named(f, int(e.at), namespace, name) {
				return int(e.at), true
			}
		}
		return 0, false
	}
	for i, off := 0, v.elems; i < v.count; i++ {
		if named(f, off, namespace, name) {
			return off, true
		}
		_, off = elementAt(f, off)
	}
	return 0, false
}

// named reports whether the element whose header is at off in a checked
// frame has the namespace and name.
func named(frame []byte, off int, namespace, name string) bool {
	ns, off := shortAt(frame, off)
	if ns != namespace {
		return false
	}
	n, _ := shortAt(frame, off)
	return n == name
}

// header reads the header of element i, which is at off: its names,
// the length of its MIME type and the offset of element i+1.
func (v *View) header(i, off int) (ns, name string, mime, next int) {
	f := v.frame
	if v.count > len(v.index) {
		ns, off = shortAt(f, off)
		name, off = shortAt(f, off)
		mime = int(binary.BigEndian.Uint16(f[off:]))
		off += 2 + mime
		return ns, name, mime, off + 4 + int(binary.BigEndian.Uint32(f[off:]))
	}
	e := v.index[i]
	ns = aliasString(f[off+2 : off+2+int(e.nsLen)])
	off += 4 + int(e.nsLen)
	name = aliasString(f[off : off+int(e.nameLen)])
	mime = int(binary.BigEndian.Uint16(f[off+int(e.nameLen):]))
	if next = len(f); i+1 < v.count {
		next = int(v.index[i+1].at)
	}
	return ns, name, mime, next
}

// Element returns the first element with the given namespace and name.
func (v *View) Element(namespace, name string) (Element, bool) {
	off, ok := v.find(namespace, name)
	if !ok {
		return Element{}, false
	}
	e, _ := elementAt(v.frame, off)
	return e, true
}

// Bytes returns the payload of the named element, or nil if absent.
func (v *View) Bytes(namespace, name string) []byte {
	off, ok := v.find(namespace, name)
	if !ok {
		return nil
	}
	for range 3 { // namespace, name, MIME type
		off += 2 + int(binary.BigEndian.Uint16(v.frame[off:]))
	}
	if n := int(binary.BigEndian.Uint32(v.frame[off:])); n > 0 {
		return v.frame[off+4 : off+4+n : off+4+n]
	}
	return nil
}

// Text returns the payload of the named element as a string over the
// frame's bytes, or "" if absent: Message.Text's string.
func (v *View) Text(namespace, name string) string {
	return aliasString(v.Bytes(namespace, name))
}

// Uint64 decodes the named element as Message.Uint64 does.
func (v *View) Uint64(namespace, name string) (uint64, bool) {
	return uint64Of(v.Element(namespace, name))
}

// GetID decodes the named ID element as Message.GetID does.
func (v *View) GetID(namespace, name string) (jid.ID, error) {
	e, ok := v.Element(namespace, name)
	return idOf(namespace, name, e, ok)
}

// Message decodes the frame into a Message, the one block Unmarshal
// allocates: its names and payloads are the frame's bytes. Each call
// decodes anew.
func (v *View) Message() *Message {
	d := &decoded{}
	m := &d.Message
	m.small = d.smallRoom[:]
	m.ID, m.Src, m.TTL = v.ID(), v.Src(), v.ttl
	if v.plen > 0 {
		d.setPath(int(v.plen))
		v.AppendPath(m.Path[:0])
	}
	if v.count <= len(d.elems) {
		m.elements = d.elems[:v.count]
	} else {
		m.elements = make([]Element, v.count)
	}
	for i, off := 0, v.elems; i < v.count; i++ {
		e := &m.elements[i]
		ns, name, mime, next := v.header(i, off)
		at := off + 6 + len(ns) + len(name) // the MIME type
		e.Namespace, e.Name, e.MimeType = ns, name, aliasString(v.frame[at:at+mime])
		if at += mime + 4; at < next {
			// Capped, so that an append to one element's Data cannot
			// run into its neighbour's.
			e.Data = v.frame[at:next:next]
		}
		off = next
	}
	return m
}

// ErrNoForward is Forward's refusal of a frame this peer must not
// forward: its TTL is spent, or the peer is on its path already — where
// Stamp reports false.
var ErrNoForward = errors.New("message: TTL spent or peer already on the path")

// maxStamps bounds the stamps of one Forward.
const maxStamps = 64

// Forward appends to dst the frame a hop, self, sends on for the frame v
// views, without decoding it. The bytes are the ones Unmarshal, Stamp,
// one ReplaceElement per stamp and MarshalAppend with the envelope would
// write, and Forward refuses what they refuse:
//   - the header is v's, with the TTL one lower and self behind the path;
//   - every element is copied as it is, except that each stamp takes the
//     place of the first element of its name, or follows the frame's
//     elements when none has it, and an element or stamp an envelope
//     field names is left out;
//   - the envelope fields follow, as MarshalAppend writes them.
//
// Stamps, like fields, must differ from each other in name, and are at
// most 64. Forward reads the frame and writes dst alone: a hop forwards
// into a buffer of its own, and the frame stays as it was received.
func Forward(dst []byte, v *View, self jid.ID, stamps []Element, envelope ...Field) ([]byte, error) {
	if v.ttl == 0 || v.Visited(self) {
		return nil, ErrNoForward
	}
	if int(v.plen) >= MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d", ErrTooLarge, int(v.plen)+1)
	}
	if len(stamps) > maxStamps {
		return nil, fmt.Errorf("%w: %d stamps", ErrTooLarge, len(stamps))
	}
	grow := len(v.frame) + jid.WireSize
	for _, s := range stamps {
		if err := checkElement(s); err != nil {
			return nil, err
		}
		grow += minElementSize + len(s.Namespace) + len(s.Name) + len(s.MimeType) + len(s.Data)
	}
	for _, f := range envelope {
		if err := checkField(f); err != nil {
			return nil, err
		}
		grow += minElementSize + len(f.Namespace) + len(f.Name) + len(f.Value)
	}
	f := v.frame
	dst = slices.Grow(dst, grow)
	dst = append(dst, f[:offTTL]...)
	dst = append(dst, v.ttl-1, v.plen+1)
	dst = append(dst, f[offPath:v.pathEnd()]...)
	dst = self.AppendWire(dst)
	countAt := len(dst) // filled in once the left-out elements are known
	dst = append(dst, 0, 0)
	count := len(envelope)
	var placed uint64 // the stamps that took an element's place
	run := v.elems    // the start of the elements copied as they are, not yet written
	for i, off := 0, v.elems; i < v.count; i++ {
		ns, name, mime, next := v.header(i, off)
		stamp := -1
		for j := range stamps {
			if stamps[j].Namespace == ns && stamps[j].Name == name && placed&(1<<j) == 0 {
				stamp, placed = j, placed|1<<j
				break
			}
		}
		if stamp < 0 && max(len(ns), len(name), mime) > 255 {
			return nil, errLongHeader
		}
		left := enveloped(envelope, ns, name)
		if stamp < 0 && !left {
			count++
			off = next
			continue
		}
		dst = append(dst, f[run:off]...)
		if !left {
			count++
			dst = appendElement(dst, stamps[stamp])
		}
		off, run = next, next
	}
	dst = append(dst, f[run:]...)
	elements := v.count
	for j, s := range stamps {
		if placed&(1<<j) != 0 {
			continue
		}
		elements++
		if !enveloped(envelope, s.Namespace, s.Name) {
			count++
			dst = appendElement(dst, s)
		}
	}
	if elements > MaxElements {
		return nil, fmt.Errorf("%w: %d elements", ErrTooLarge, elements)
	}
	for _, f := range envelope {
		dst = appendElementHeader(dst, f.Namespace, f.Name, "", len(f.Value))
		dst = append(dst, f.Value...)
	}
	if count > MaxElements {
		return nil, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	binary.BigEndian.PutUint16(dst[countAt:], uint16(count))
	return dst, nil
}
