package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

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

// MarshalAppend encodes the message onto the end of buf and returns the
// extended slice, letting hot paths reuse pooled buffers instead of
// allocating a fresh frame per send.
func (m *Message) MarshalAppend(buf []byte) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
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
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.elements)))
	for _, e := range m.elements {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Namespace)))
		buf = append(buf, e.Namespace...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.MimeType)))
		buf = append(buf, e.MimeType...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Data)))
		buf = append(buf, e.Data...)
	}
	return buf, nil
}

// Unmarshal decodes one wire frame produced by Marshal.
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
	m := &Message{}
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
		// Pre-size for the hops the message can still take, so forwarding
		// peers Stamp without reallocating.
		m.Path = make([]jid.ID, plen, int(plen)+int(m.TTL)+1)
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
	// Two passes over the elements: the first checks every bound and
	// sizes two arenas, the second copies all strings into one and all
	// payloads into the other. Elements are sub-slices of the arenas, so
	// a frame costs two allocations however many elements it carries,
	// and the decoded message does not alias the frame.
	elems := r.off
	var strBytes, dataBytes int
	for i := 0; i < int(count); i++ {
		ns, name, mime, data, err := r.element()
		if err != nil {
			return nil, err
		}
		strBytes += len(ns) + len(name) + len(mime)
		dataBytes += len(data)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("message: %d trailing bytes", r.remaining())
	}
	r.off = elems
	var strs strings.Builder
	strs.Grow(strBytes)
	str := func(b []byte) string {
		// The builder never regrows, so strings cut from it stay valid
		// while later ones are written behind them.
		off := strs.Len()
		strs.Write(b)
		return strs.String()[off:]
	}
	payloads := make([]byte, 0, dataBytes)
	m.elements = make([]Element, count)
	for i := range m.elements {
		ns, name, mime, data, _ := r.element()
		e := Element{Namespace: str(ns), Name: str(name), MimeType: str(mime)}
		if len(data) > 0 {
			// Capped, so that an append to one element's Data cannot
			// run into its neighbour's.
			off := len(payloads)
			payloads = append(payloads, data...)
			e.Data = payloads[off:len(payloads):len(payloads)]
		}
		m.elements[i] = e
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
