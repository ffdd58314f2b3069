// Package message implements JXTA messages.
//
// A message is an ordered sequence of named elements, each carrying a MIME
// type and an opaque byte payload, together with an envelope used by the
// transport and propagation machinery: a message UUID (duplicate
// suppression in propagated pipes), the source peer ID, a TTL and the list
// of peers already visited (loop suppression in rendezvous propagation).
//
// The binary wire codec in codec.go is the only representation that
// crosses the network; in-process the Message struct is shared by value of
// its handle, so senders must Dup before mutating (mirroring JXTA's
// msg.dup()).
//
// # Copy-on-write
//
// Messages are immutable-by-contract once shared: a hop that needs
// private per-hop state on a message somebody else may hold calls Dup,
// and Dup is a cheap header copy, not a deep copy. A message nothing
// else holds is written as it is. Propagate takes the message it is
// given — it stamps this hop's path and TTL into it and writes rdv:Op,
// DSvc and DParam into its spare element room — so a caller that goes
// on reading the message, as the wire service does after handing it to
// a local listener, passes a Dup; a rendezvous forwarding a message it
// has also handed to its group's reader stamps a Dup too. Addressing a
// frame below the rendezvous is not a mutation at any layer — the wire
// service's pipe ID and the endpoint's destination are envelope fields
// written into the frame (MarshalAppend) by an encoder that only reads
// the message.
// The element list — including payload byte slices — is shared
// read-only between a message and its Dups; the first mutation through
// AddElement, ReplaceElement or RemoveElement clones the element
// headers (payloads stay shared), so a ReplaceID on one hop's envelope
// never leaks into sibling deliveries.
// Two rules keep this safe:
//
//   - element payloads must never be modified in place (they may be
//     aliased by any number of in-flight copies, by pooled marshal
//     buffers, by the strings Text returns and by the ones AddString
//     and ReplaceText were given), and
//   - Path must only be extended through Stamp; Dup gives each copy its
//     own path, in the block it allocates for the header, with room for
//     a full-TTL traversal.
//
// # Received frames
//
// Unmarshal does not copy: the names and payloads of a decoded message
// are the frame's own bytes. A transport therefore gives a received
// frame away — it never writes those bytes again, and the collector
// frees them when the last message, Dup, Text string or payload slice
// cut from them is gone (endpoint.Transport.SetReceiver). The first rule
// above covers the rest: nobody writes a payload in place, so nobody
// writes a frame. What can go wrong under this rule is memory held
// longer than meant — see Text — never memory changed under a reader.
//
// Dup itself requires the same single-goroutine ownership the deep copy
// did: concurrent readers of a shared message are fine — of the message
// it copies, Dup writes only the copy-on-write mark, which no reader
// looks at — but Dup and the mutators must not race each other on the
// same Message.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// Element is one named part of a message.
type Element struct {
	// Namespace scopes the element name; services use their own namespace
	// (e.g. "jxta", "wire", "tps") to avoid clashing with application
	// elements.
	Namespace string
	// Name identifies the element within its namespace.
	Name string
	// MimeType describes Data; empty means "application/octet-stream".
	MimeType string
	// Data is the payload. It is owned by the message; callers must not
	// retain slices passed to AddElement after the call.
	Data []byte
}

// Key returns the namespace-qualified element name.
func (e Element) Key() string { return e.Namespace + ":" + e.Name }

// Message is a unit of communication between peers.
type Message struct {
	// ID is the message UUID. Propagated pipes use it to drop duplicates.
	ID jid.ID
	// Src is the peer that created the message.
	Src jid.ID
	// TTL is the remaining propagation hop budget. A message with TTL 0
	// is delivered locally but never forwarded.
	TTL uint8
	// cow marks elements as shared with other messages (this message was
	// Dup'd, or is a Dup). The first mutation clones the element headers
	// before writing; payload bytes stay shared read-only. It sits beside
	// TTL, in what would be padding, so a Dup's block stays in its size
	// class.
	cow bool
	// Path lists the peers the message already visited, newest last.
	// Rendezvous peers use it to suppress propagation loops. Extend it
	// only through Stamp.
	Path []jid.ID

	elements []Element
	// small is what is left of the room New and Unmarshal leave for the
	// payloads of AddID, ReplaceID, AddUint64 and ReplaceUint64, each
	// the next bytes of it, written once. A Dup gets none: the room
	// behind its original is spoken for.
	small []byte
	// block is the block New built the message in, whose path and
	// payload room the first Stamp and PayloadRoom take; nil for a Dup
	// and a decoded message.
	block *built
}

// DefaultTTL is the hop budget assigned by New. Seven hops comfortably
// covers rendezvous meshes of practical diameter.
const DefaultTTL = 7

// built is what New allocates: the header and, behind it, room for the
// path of its hops, for the elements a sender and the rendezvous that
// propagates it add — an event is two, a traced one three, Propagate
// adds three and a durable rendezvous two — for the payloads of two
// IDs and an 8-byte integer, and for one payload an encoder writes
// (PayloadRoom), so that building and sending a message costs one block
// and no Grow. The payload room fills the block to its size class: it
// holds a 64 B-pad event's 184-byte blob.
type built struct {
	Message
	path      [DefaultTTL + 1]jid.ID
	elems     [8]Element
	smallRoom [2*jid.WireSize + 8]byte
	// pathTaken and payloadTaken record that path and payload are
	// handed out.
	pathTaken, payloadTaken bool
	payload                 [payloadRoomSize]byte
}

// payloadRoomSize is the capacity of the slice PayloadRoom returns.
const payloadRoomSize = 276

// New returns an empty message with a fresh UUID and the default TTL.
func New(src jid.ID) *Message {
	b := &built{Message: Message{ID: jid.NewMessage(), Src: src, TTL: DefaultTTL}}
	b.elements, b.small, b.block = b.elems[:0], b.smallRoom[:], b
	return &b.Message
}

// PayloadRoom returns the room New left in the message's block for one
// payload: an empty slice with a capacity of 276 bytes, for an
// append-style encoder to write an element's payload into before it is
// added (AddBytes), so the payload costs no allocation of its own. A
// larger payload moves out of the room into one of its own, as append
// does. The room is handed out once: a second call, and a call on a
// message New did not build, returns nil.
func (m *Message) PayloadRoom() []byte {
	b := m.block
	if b == nil || b.payloadTaken {
		return nil
	}
	b.payloadTaken = true
	return b.payload[:0]
}

// smallPayload returns an empty slice with capacity n, the next n bytes
// of the message's small room while that lasts.
func (m *Message) smallPayload(n int) []byte {
	if len(m.small) < n {
		return make([]byte, 0, n)
	}
	var b []byte
	b, m.small = m.small[:0:n], m.small[n:]
	return b
}

// ownElements makes the element slice exclusively owned, cloning the
// headers (payloads stay shared) when it is marked copy-on-write. extra
// reserves capacity for that many appends beyond the current length.
func (m *Message) ownElements(extra int) {
	if !m.cow {
		return
	}
	el := make([]Element, len(m.elements), len(m.elements)+extra)
	copy(el, m.elements)
	m.elements = el
	m.cow = false
}

// Grow ensures capacity for n additional elements, so a known-size batch
// of Add calls allocates at most once.
func (m *Message) Grow(n int) {
	if m.cow || cap(m.elements)-len(m.elements) < n {
		el := make([]Element, len(m.elements), len(m.elements)+n)
		copy(el, m.elements)
		m.elements = el
		m.cow = false
	}
}

// AddElement appends an element to the message.
func (m *Message) AddElement(e Element) {
	m.ownElements(4)
	m.elements = append(m.elements, e)
}

// AddBytes appends an element with the given payload and the default MIME
// type.
func (m *Message) AddBytes(namespace, name string, data []byte) {
	m.AddElement(Element{Namespace: namespace, Name: name, Data: data})
}

// AddString appends a text element. It shares the string's bytes, as
// ReplaceText does.
func (m *Message) AddString(namespace, name, value string) {
	m.AddElement(Element{Namespace: namespace, Name: name, MimeType: "text/plain", Data: aliasBytes(value)})
}

// AddID appends an element whose payload is the binary wire form of the
// ID (jid.WireSize bytes), avoiding the text URN round-trip on the hot
// path. GetID reverses it. The first two IDs added to a message New
// built, and the first one added to a message Unmarshal decoded, take
// no allocation of their own.
func (m *Message) AddID(namespace, name string, id jid.ID) {
	m.AddElement(m.idElement(namespace, name, id))
}

// ReplaceID is AddID with ReplaceElement semantics.
func (m *Message) ReplaceID(namespace, name string, id jid.ID) {
	m.ReplaceElement(m.idElement(namespace, name, id))
}

func (m *Message) idElement(namespace, name string, id jid.ID) Element {
	return Element{
		Namespace: namespace,
		Name:      name,
		MimeType:  "application/x-jxta-id",
		Data:      id.AppendWire(m.smallPayload(jid.WireSize)),
	}
}

// GetID decodes the named ID element, the binary form written by AddID
// and ReplaceID. A missing element or malformed payload returns an error.
func (m *Message) GetID(namespace, name string) (jid.ID, error) {
	e, ok := m.Element(namespace, name)
	if !ok {
		return jid.Nil, fmt.Errorf("message: no %s:%s element", namespace, name)
	}
	if len(e.Data) != jid.WireSize {
		return jid.Nil, fmt.Errorf("message: %s:%s is %d bytes, not an ID", namespace, name, len(e.Data))
	}
	return jid.FromWire(e.Data[0], [16]byte(e.Data[1:]))
}

// Element returns the first element with the given namespace and name.
func (m *Message) Element(namespace, name string) (Element, bool) {
	for _, e := range m.elements {
		if e.Namespace == namespace && e.Name == name {
			return e, true
		}
	}
	return Element{}, false
}

// Text returns the payload of the named text element, or "" if absent.
// The string aliases the payload and is not a copy of it — the receive
// path routes every frame on half a dozen of these — which is sound
// because of the first copy-on-write rule in the package comment: a
// payload is never modified in place. Of a received message the string
// is a piece of the frame, and a frame off tcpnet a piece of a 64 kB
// read chunk: a string kept — a map key, a table entry, a field of
// anything that outlives the handler — keeps the whole chunk alive.
// strings.Clone what is kept.
func (m *Message) Text(namespace, name string) string {
	return aliasString(m.Bytes(namespace, name))
}

// aliasString is b as a string, sharing its bytes.
func aliasString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// aliasBytes is s as a payload, sharing its bytes and capped so that an
// append cannot write behind them.
func aliasBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Bytes returns the payload of the named element, or nil if absent.
func (m *Message) Bytes(namespace, name string) []byte {
	e, ok := m.Element(namespace, name)
	if !ok {
		return nil
	}
	return e.Data
}

// ReplaceText is ReplaceElement for a text value. The element shares the
// string's bytes, as Text shares a payload's: sound for the same reason,
// a payload is never modified in place.
func (m *Message) ReplaceText(namespace, name, value string) {
	m.ReplaceElement(Element{Namespace: namespace, Name: name, Data: aliasBytes(value)})
}

// AddUint64 appends an element carrying v as an 8-byte big-endian
// unsigned integer. Uint64 reverses it.
func (m *Message) AddUint64(namespace, name string, v uint64) {
	m.AddBytes(namespace, name, binary.BigEndian.AppendUint64(m.smallPayload(8), v))
}

// ReplaceUint64 is AddUint64 with ReplaceElement semantics. Like AddID,
// it writes its payload into the room New and Unmarshal leave.
func (m *Message) ReplaceUint64(namespace, name string, v uint64) {
	m.ReplaceElement(Element{Namespace: namespace, Name: name, Data: binary.BigEndian.AppendUint64(m.smallPayload(8), v)})
}

// Uint64 decodes the named element as an 8-byte big-endian unsigned
// integer — the convention binary numeric elements use (the rdv:Seq
// log sequence and the other rdv control fields, the trc:Ev publish
// stamp). ok is false when the element is absent or not exactly 8
// bytes. The lookup is allocation-free, so hot-path probes can afford
// it per message.
func (m *Message) Uint64(namespace, name string) (uint64, bool) {
	e, ok := m.Element(namespace, name)
	if !ok || len(e.Data) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(e.Data), true
}

// ReplaceElement replaces the first element matching e's namespace and
// name, or appends e if no such element exists.
func (m *Message) ReplaceElement(e Element) {
	for i := range m.elements {
		if m.elements[i].Namespace == e.Namespace && m.elements[i].Name == e.Name {
			m.ownElements(1)
			m.elements[i] = e
			return
		}
	}
	m.AddElement(e)
}

// RemoveElement removes the first element with the given namespace and
// name and reports whether one was removed.
func (m *Message) RemoveElement(namespace, name string) bool {
	for i := range m.elements {
		if m.elements[i].Namespace == namespace && m.elements[i].Name == name {
			m.ownElements(0)
			m.elements = append(m.elements[:i], m.elements[i+1:]...)
			return true
		}
	}
	return false
}

// Elements returns a copy of the element list. Payload byte slices are
// shared; treat them as read-only.
func (m *Message) Elements() []Element {
	out := make([]Element, len(m.elements))
	copy(out, m.elements)
	return out
}

// Len returns the number of elements.
func (m *Message) Len() int { return len(m.elements) }

// Visited reports whether peer is already on the message path.
func (m *Message) Visited(peer jid.ID) bool {
	for _, p := range m.Path {
		if p == peer {
			return true
		}
	}
	return false
}

// Stamp appends peer to the path and decrements the TTL. It reports false
// if the TTL was already exhausted or the peer had been visited, in which
// case the message must not be forwarded. A path that has to grow is
// sized from the remaining TTL, so a full-TTL traversal reallocates at
// most once; a message New built, a Dup and a decoded message have the
// room already.
func (m *Message) Stamp(peer jid.ID) bool {
	if m.TTL == 0 || m.Visited(peer) {
		return false
	}
	m.TTL--
	if cap(m.Path) == len(m.Path) {
		if b := m.block; m.Path == nil && b != nil && !b.pathTaken && int(m.TTL) < len(b.path) {
			m.Path, b.pathTaken = b.path[:0], true
		} else {
			p := make([]jid.ID, len(m.Path), len(m.Path)+int(m.TTL)+1)
			copy(p, m.Path)
			m.Path = p
		}
	}
	m.Path = append(m.Path, peer)
	return true
}

// hop is a message header with room behind it for the path of a
// default-TTL message: what Dup allocates and Unmarshal's block starts
// with, so that neither the path nor the Stamp of the peer holding the
// message costs an allocation of its own.
type hop struct {
	Message
	path [DefaultTTL + 1]jid.ID
}

// decoded is what Unmarshal allocates: a hop and, behind it, the element
// headers of the frame — an event's frame carries eight to eleven, one
// of an older publisher or a baseline's wire pipe up to thirteen, a
// frame with more than thirteen gets a slice of its own — and room for
// the two payloads a durable rendezvous stamps on what it forwards: its
// log sequence (ReplaceUint64) and its ID (ReplaceID). Names and
// payloads stay in the frame, so a received message is this one block,
// whose size class thirteen headers and the room just fill.
type decoded struct {
	hop
	elems     [13]Element
	smallRoom [8 + jid.WireSize]byte
}

// setPath gives the message a path of n peers, with room for the hops
// its TTL still allows.
func (h *hop) setPath(n int) {
	if hops := n + int(h.TTL) + 1; hops <= len(h.path) {
		h.Path = h.path[:n:hops]
	} else {
		h.Path = make([]jid.ID, n, hops)
	}
}

// Dup returns a copy of the message that may be mutated independently.
// The copy keeps the same message ID: duplicate suppression must treat a
// re-sent message as the same logical event, as JXTA's msg.dup() does.
//
// Dup is O(1) in the payload: elements are shared copy-on-write between
// the original and the copy (see the package comment), so duplicating a
// message costs one block — its header and its path, with room for the
// Stamps its TTL allows — regardless of how many kilobytes its payload
// elements hold; the first mutation of the copy adds the element
// headers. Of m, Dup writes the copy-on-write mark alone.
func (m *Message) Dup() *Message {
	m.cow = true
	h := &hop{Message: Message{ID: m.ID, Src: m.Src, TTL: m.TTL, elements: m.elements, cow: true}}
	h.setPath(len(m.Path))
	copy(h.Path, m.Path)
	return &h.Message
}

// WireSize returns the exact encoded size in bytes without encoding.
func (m *Message) WireSize() int {
	n := 4 + 1 + 2*17 + 1 + 1 + len(m.Path)*17 + 2 // magic, version, ids, ttl, plen, path, count
	for _, e := range m.elements {
		n += 2 + len(e.Namespace) + 2 + len(e.Name) + 2 + len(e.MimeType) + 4 + len(e.Data)
	}
	return n
}

// Validation limits for the wire codec. They bound what a malicious or
// corrupt peer can make the decoder allocate.
const (
	MaxElements    = 1024
	MaxElementSize = 16 << 20 // 16 MiB per element payload
	MaxPathLen     = 64
)

// ErrTooLarge is returned when a message violates the codec limits.
var ErrTooLarge = errors.New("message: exceeds wire limits")

// Validate checks the message against the wire limits.
func (m *Message) Validate() error {
	if len(m.elements) > MaxElements {
		return fmt.Errorf("%w: %d elements", ErrTooLarge, len(m.elements))
	}
	if len(m.Path) > MaxPathLen {
		return fmt.Errorf("%w: path length %d", ErrTooLarge, len(m.Path))
	}
	for _, e := range m.elements {
		if len(e.Data) > MaxElementSize {
			return fmt.Errorf("%w: element %s is %d bytes", ErrTooLarge, e.Key(), len(e.Data))
		}
		if len(e.Namespace) > 255 || len(e.Name) > 255 || len(e.MimeType) > 255 {
			return fmt.Errorf("%w: element header fields exceed 255 bytes", ErrTooLarge)
		}
	}
	return nil
}
