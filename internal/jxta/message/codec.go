package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// Wire format (all integers big-endian):
//
//	magic   [4]byte  "JXM1"
//	version uint8    currently 1
//	id      [17]byte kind byte + 16 UUID bytes
//	src     [17]byte
//	ttl     uint8
//	plen    uint8    path length
//	path    plen × [17]byte
//	count   uint16   element count
//	count × element:
//	  nslen   uint16, ns    []byte
//	  namelen uint16, name  []byte
//	  mimelen uint16, mime  []byte
//	  datalen uint32, data  []byte
//
// The format is deliberately simple: it is the moral equivalent of JXTA's
// binary message wire format, and the paper's 1910-byte test messages fit
// in a single frame.

var wireMagic = [4]byte{'J', 'X', 'M', '1'}

const wireVersion = 1

// Decode errors.
var (
	ErrBadMagic   = errors.New("message: bad magic")
	ErrBadVersion = errors.New("message: unsupported version")
	ErrTruncated  = errors.New("message: truncated frame")
)

func putID(buf []byte, id jid.ID) []byte {
	return id.AppendWire(buf)
}

func readID(r *sliceReader) (jid.ID, error) {
	var raw [jid.WireSize]byte
	if err := r.readInto(raw[:]); err != nil {
		return jid.Nil, err
	}
	id, err := jid.FromWire(raw[0], [16]byte(raw[1:]))
	if err != nil {
		return jid.Nil, fmt.Errorf("message: bad ID: %w", err)
	}
	return id, nil
}

// Marshal encodes the message into a single wire frame.
func (m *Message) Marshal() ([]byte, error) {
	return m.MarshalAppend(make([]byte, 0, m.WireSize()))
}

// Field is an envelope element a hop writes into the frame it is
// marshalling without adding it to the message: the pipe a message is
// sent on, the service it is propagated to, the destination a sender
// addresses, its return address. Each layer hands its fields down to
// the one that encodes.
type Field struct{ Namespace, Name, Value string }

// MarshalAppend encodes the message onto the end of buf and returns the
// extended slice, letting hot paths reuse pooled buffers instead of
// allocating a fresh frame per send. Each envelope field is written as a
// trailing element with no MIME type, and an element of the message with
// a field's namespace and name is left out — ReplaceElement's result in
// the frame, with the message itself untouched, so a hop needs no private
// copy just to address it. Fields must differ from each other in name.
func (m *Message) MarshalAppend(buf []byte, envelope ...Field) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for _, f := range envelope {
		if len(f.Namespace) > 255 || len(f.Name) > 255 || len(f.Value) > MaxElementSize {
			return nil, fmt.Errorf("%w: envelope field %s:%s", ErrTooLarge, f.Namespace, f.Name)
		}
	}
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, wireVersion)
	buf = putID(buf, m.ID)
	buf = putID(buf, m.Src)
	buf = append(buf, m.TTL)
	buf = append(buf, byte(len(m.Path)))
	for _, p := range m.Path {
		buf = putID(buf, p)
	}
	countAt := len(buf) // filled in once the replaced elements are known
	buf = append(buf, 0, 0)
	count := len(envelope)
elements:
	for i := range m.elements {
		e := &m.elements[i]
		for _, f := range envelope {
			if e.Namespace == f.Namespace && e.Name == f.Name {
				continue elements
			}
		}
		count++
		buf = appendElementHeader(buf, e.Namespace, e.Name, e.MimeType, len(e.Data))
		buf = append(buf, e.Data...)
	}
	for _, f := range envelope {
		buf = appendElementHeader(buf, f.Namespace, f.Name, "", len(f.Value))
		buf = append(buf, f.Value...)
	}
	if count > MaxElements {
		return nil, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	binary.BigEndian.PutUint16(buf[countAt:], uint16(count))
	return buf, nil
}

func appendElementHeader(buf []byte, ns, name, mime string, dataLen int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ns)))
	buf = append(buf, ns...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(mime)))
	buf = append(buf, mime...)
	return binary.BigEndian.AppendUint32(buf, uint32(dataLen))
}

// minElementSize is an element with every field empty: three 16-bit
// lengths and one 32-bit one.
const minElementSize = 3*2 + 4

// Unmarshal decodes one wire frame produced by Marshal. The message is
// cut out of frame, not copied from it — names are strings over its
// bytes, payloads capped slices of it — so frame belongs to the message
// from here on: the caller must never write it again (see the package
// comment, "Received frames"). Unmarshal itself only reads it.
func Unmarshal(frame []byte) (*Message, error) {
	r := &sliceReader{buf: frame}
	var magic [4]byte
	if err := r.readInto(magic[:]); err != nil {
		return nil, err
	}
	if magic != wireMagic {
		return nil, ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	d := &decoded{}
	m := &d.Message
	m.small = d.smallRoom[:]
	if m.ID, err = readID(r); err != nil {
		return nil, err
	}
	if m.Src, err = readID(r); err != nil {
		return nil, err
	}
	if m.TTL, err = r.byte(); err != nil {
		return nil, err
	}
	plen, err := r.byte()
	if err != nil {
		return nil, err
	}
	if int(plen) > MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d", ErrTooLarge, plen)
	}
	if plen > 0 {
		d.setPath(int(plen))
		for i := range m.Path {
			if m.Path[i], err = readID(r); err != nil {
				return nil, err
			}
		}
	}
	count, err := r.uint16()
	if err != nil {
		return nil, err
	}
	if int(count) > MaxElements {
		return nil, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	if r.remaining() < int(count)*minElementSize {
		return nil, ErrTruncated // before the count sizes an allocation
	}
	if int(count) <= len(d.elems) {
		m.elements = d.elems[:count]
	} else {
		m.elements = make([]Element, count)
	}
	for i := range m.elements {
		ns, name, mime, data, err := r.element()
		if err != nil {
			return nil, err
		}
		e := Element{Namespace: aliasString(ns), Name: aliasString(name), MimeType: aliasString(mime)}
		if len(data) > 0 {
			// Capped, so that an append to one element's Data cannot
			// run into its neighbour's.
			e.Data = data[:len(data):len(data)]
		}
		m.elements[i] = e
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("message: %d trailing bytes", r.remaining())
	}
	return m, nil
}

// sliceReader is a zero-copy cursor over a decode buffer.
type sliceReader struct {
	buf []byte
	off int
}

func (r *sliceReader) remaining() int { return len(r.buf) - r.off }

// readInto copies exactly len(p) bytes into p without the interface
// indirection of io.ReadFull, which would force p's backing array to
// escape to the heap at every call site.
func (r *sliceReader) readInto(p []byte) error {
	if r.remaining() < len(p) {
		return ErrTruncated
	}
	copy(p, r.buf[r.off:])
	r.off += len(p)
	return nil
}

func (r *sliceReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *sliceReader) uint16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *sliceReader) uint32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// field returns the next n bytes, aliasing the decode buffer.
func (r *sliceReader) field(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *sliceReader) shortField() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	return r.field(int(n))
}

// element reads one element's four fields, aliasing the decode buffer.
func (r *sliceReader) element() (ns, name, mime, data []byte, err error) {
	if ns, err = r.shortField(); err != nil {
		return
	}
	if name, err = r.shortField(); err != nil {
		return
	}
	if mime, err = r.shortField(); err != nil {
		return
	}
	dlen, err := r.uint32()
	if err != nil {
		return
	}
	if dlen > MaxElementSize {
		err = fmt.Errorf("%w: element payload %d bytes", ErrTooLarge, dlen)
		return
	}
	data, err = r.field(int(dlen))
	return
}
