// Package jid implements JXTA-style identifiers.
//
// Every JXTA resource — peer, peer group, pipe, message, codat or module —
// is identified by a location-independent ID. IDs are 128-bit UUIDs tagged
// with the kind of resource they name, rendered in the canonical
// "urn:jxta:uuid-<32 hex digits><2 hex kind>" form. Because IDs are not
// bound to any physical address, a peer that changes its network address
// keeps its identity, which is what the Pipe Binding Protocol and the
// Endpoint Routing Protocol rely on to re-bind moving peers.
package jid

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Kind tags the resource category an ID names.
type Kind uint8

// Resource kinds. They start at one so the zero Kind is invalid, making
// accidentally-zeroed IDs detectable.
const (
	KindPeer Kind = iota + 1
	KindGroup
	KindPipe
	KindMessage
	KindCodat
	KindModule
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPeer:
		return "peer"
	case KindGroup:
		return "group"
	case KindPipe:
		return "pipe"
	case KindMessage:
		return "message"
	case KindCodat:
		return "codat"
	case KindModule:
		return "module"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

func (k Kind) valid() bool { return k >= KindPeer && k <= KindModule }

// ID is a JXTA identifier: a 128-bit UUID plus a resource kind.
// The zero value is the nil ID; IsZero reports it and it never equals a
// generated ID.
type ID struct {
	kind Kind
	uuid [16]byte
}

// Nil is the zero ID. It names no resource.
var Nil ID

// ErrBadFormat is returned by Parse for strings that are not canonical
// JXTA URNs.
var ErrBadFormat = errors.New("jid: bad ID format")

const urnPrefix = "urn:jxta:uuid-"

// Kind returns the resource kind of the ID.
func (id ID) Kind() Kind { return id.kind }

// IsZero reports whether the ID is the nil ID.
func (id ID) IsZero() bool { return id == Nil }

// UUID returns the raw 16-byte UUID.
func (id ID) UUID() [16]byte { return id.uuid }

// String renders the ID as a canonical JXTA URN.
func (id ID) String() string {
	if id.IsZero() {
		return urnPrefix + strings.Repeat("0", 34)
	}
	var b strings.Builder
	b.Grow(len(urnPrefix) + 34)
	b.WriteString(urnPrefix)
	dst := make([]byte, 32)
	hex.Encode(dst, id.uuid[:])
	b.Write(dst)
	kb := [1]byte{byte(id.kind)}
	kd := make([]byte, 2)
	hex.Encode(kd, kb[:])
	b.Write(kd)
	return b.String()
}

// Short returns an abbreviated form such as "694..004" used in logs,
// mirroring the notation of the paper's figures.
func (id ID) Short() string {
	s := hex.EncodeToString(id.uuid[:])
	return s[:3] + ".." + s[len(s)-3:]
}

// Equal reports whether two IDs name the same resource.
func (id ID) Equal(other ID) bool { return id == other }

// Less imposes a total order over IDs (kind first, then UUID bytes). It is
// used to keep advertisement listings and routing tables deterministic.
func (id ID) Less(other ID) bool {
	if id.kind != other.kind {
		return id.kind < other.kind
	}
	for i := range id.uuid {
		if id.uuid[i] != other.uuid[i] {
			return id.uuid[i] < other.uuid[i]
		}
	}
	return false
}

// MarshalText implements encoding.TextMarshaler.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// Parse decodes a canonical JXTA URN produced by String.
func Parse(s string) (ID, error) {
	if !strings.HasPrefix(s, urnPrefix) {
		return Nil, fmt.Errorf("%w: missing %q prefix in %q", ErrBadFormat, urnPrefix, s)
	}
	body := s[len(urnPrefix):]
	if len(body) != 34 {
		return Nil, fmt.Errorf("%w: want 34 hex digits, got %d in %q", ErrBadFormat, len(body), s)
	}
	raw, err := hex.DecodeString(body)
	if err != nil {
		return Nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var id ID
	copy(id.uuid[:], raw[:16])
	id.kind = Kind(raw[16])
	if id == Nil {
		return Nil, nil
	}
	if !id.kind.valid() {
		return Nil, fmt.Errorf("%w: invalid kind byte %#x in %q", ErrBadFormat, raw[16], s)
	}
	return id, nil
}

// WireSize is the length of the binary wire form produced by AppendWire:
// one kind byte followed by the 16 UUID bytes.
const WireSize = 17

// AppendWire appends the binary wire form of the ID — the kind byte then
// the raw UUID — to buf and returns the extended slice. It is the
// allocation-free dual of String for wire codecs; FromWire reverses it.
func (id ID) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(id.kind))
	return append(buf, id.uuid[:]...)
}

// FromWire reconstructs an ID from its binary wire form: the kind byte
// and the raw UUID as laid out by AppendWire. An all-zero input yields
// the nil ID; any other input with an invalid kind byte is rejected.
// Unlike Parse it never allocates, so wire codecs can validate IDs
// without round-tripping through the canonical text form.
func FromWire(kind byte, uuid [16]byte) (ID, error) {
	id := ID{kind: Kind(kind), uuid: uuid}
	if id == Nil {
		return Nil, nil
	}
	if !id.kind.valid() {
		return Nil, fmt.Errorf("%w: invalid kind byte %#x", ErrBadFormat, kind)
	}
	return id, nil
}

// Hash64 returns a well-mixed 64-bit hash of the ID, suitable for shard
// selection and hash tables. Generated IDs carry random UUIDs, but
// deterministic IDs (FromSeed) concentrate entropy unevenly, so the
// folded halves go through a multiply-xorshift finalizer.
func (id ID) Hash64() uint64 {
	lo := binary.BigEndian.Uint64(id.uuid[:8])
	hi := binary.BigEndian.Uint64(id.uuid[8:])
	h := lo ^ hi*0x9e3779b97f4a7c15 ^ uint64(id.kind)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// MustParse is Parse for trusted literals; it panics on malformed input.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// New returns a fresh cryptographically random ID of the given kind.
func New(kind Kind) ID {
	var id ID
	id.kind = kind
	if _, err := rand.Read(id.uuid[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does the
		// process cannot mint identities and must not continue silently.
		panic(fmt.Sprintf("jid: crypto/rand failed: %v", err))
	}
	// Stamp UUID v4 variant bits so the output is a well-formed UUID.
	id.uuid[6] = (id.uuid[6] & 0x0f) | 0x40
	id.uuid[8] = (id.uuid[8] & 0x3f) | 0x80
	return id
}

// NewPeer returns a fresh peer ID.
func NewPeer() ID { return New(KindPeer) }

// NewGroup returns a fresh peer group ID.
func NewGroup() ID { return New(KindGroup) }

// NewMessage returns a fresh message ID, used for duplicate suppression in
// propagated (wire) pipes.
func NewMessage() ID { return New(KindMessage) }

// NewPipeIn derives a pipe ID scoped to a peer group, mirroring JXTA's
// "new PipeID(groupID)": the first eight bytes identify the group so that
// two groups can host same-named pipes without collision; the rest is
// random.
func NewPipeIn(group ID) ID {
	id := New(KindPipe)
	copy(id.uuid[:8], group.uuid[:8])
	return id
}

// Named returns the ID of the given kind that name stands for: the first
// 16 bytes of SHA-256 over the kind byte and the name. Every peer computes
// the same ID from the same name, so a resource named this way is known
// without being found; the kind byte keeps a group and a pipe of one name
// apart.
func Named(kind Kind, name string) ID {
	sum := sha256.Sum256(append([]byte{byte(kind)}, name...))
	id := ID{kind: kind}
	copy(id.uuid[:], sum[:16])
	return id
}

// FromSeed returns a deterministic ID for tests and simulations. The same
// (kind, seed) pair always yields the same ID.
func FromSeed(kind Kind, seed uint64) ID {
	var id ID
	id.kind = kind
	binary.BigEndian.PutUint64(id.uuid[:8], seed)
	binary.BigEndian.PutUint64(id.uuid[8:], ^seed*0x9e3779b97f4a7c15+1)
	return id
}

// Well-known group IDs, mirroring JXTA's world and net peer groups.
var (
	// WorldGroup is the root of the group hierarchy: every peer implicitly
	// belongs to it.
	WorldGroup = FromSeed(KindGroup, 0x_57_4F_52_4C_44) // "WORLD"
	// NetGroup is the default joined group after bootstrap.
	NetGroup = FromSeed(KindGroup, 0x_4E_45_54_50_47) // "NETPG"
)

// Set is a mutable, concurrency-safe collection of IDs. It backs
// seen-message caches and membership rosters.
type Set struct {
	mu sync.RWMutex
	m  map[ID]struct{}
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[ID]struct{})} }

// Add inserts id and reports whether it was absent.
func (s *Set) Add(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; ok {
		return false
	}
	s.m[id] = struct{}{}
	return true
}

// Remove deletes id and reports whether it was present.
func (s *Set) Remove(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		return false
	}
	delete(s.m, id)
	return true
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[id]
	return ok
}

// Len returns the number of IDs in the set.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Snapshot returns the members in unspecified order. The returned slice is
// owned by the caller.
func (s *Set) Snapshot() []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ID, 0, len(s.m))
	for id := range s.m {
		out = append(out, id)
	}
	return out
}
