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
		if err := checkField(f); err != nil {
			return nil, err
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
	for i := range m.elements {
		e := &m.elements[i]
		if enveloped(envelope, e.Namespace, e.Name) {
			continue
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

// checkField checks an envelope field against the wire limits.
func checkField(f Field) error {
	if len(f.Namespace) > 255 || len(f.Name) > 255 || len(f.Value) > MaxElementSize {
		return fmt.Errorf("%w: envelope field %s:%s", ErrTooLarge, f.Namespace, f.Name)
	}
	return nil
}

// enveloped reports whether a field of envelope has the namespace and
// name: the element of that name is left out of the frame.
func enveloped(envelope []Field, namespace, name string) bool {
	for _, f := range envelope {
		// Both lengths first: most names differ in one, and comparing
		// their bytes is the costly part.
		if len(f.Namespace) == len(namespace) && len(f.Name) == len(name) && f.Namespace == namespace && f.Name == name {
			return true
		}
	}
	return false
}

func appendElement(dst []byte, e Element) []byte {
	dst = appendElementHeader(dst, e.Namespace, e.Name, e.MimeType, len(e.Data))
	return append(dst, e.Data...)
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

// Unmarshal decodes one wire frame produced by Marshal: it checks the
// frame (NewView) and decodes it (View.Message). The message is cut out
// of frame, not copied from it — names are strings over its bytes,
// payloads capped slices of it — so frame belongs to the message from
// here on: the caller must never write it again (see the package
// comment, "Received frames"). Unmarshal itself only reads it.
func Unmarshal(frame []byte) (*Message, error) {
	v, err := NewView(frame)
	if err != nil {
		return nil, err
	}
	return v.Message(), nil
}
