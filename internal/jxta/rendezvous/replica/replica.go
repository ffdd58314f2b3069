// Package replica is the anti-entropy half of rendezvous replication:
// the digest format peers in a replica set exchange, and the store that
// keeps byte-identical copies of other replicas' per-topic event logs
// alongside this peer's own.
//
// The protocol is pull-based and convergent. Every sync interval each
// replica sends the others a digest of every (origin, topic) log stream
// it holds — the highest contiguous sequence plus per-segment CRC-32C
// checksums over the eventlog's Castagnoli-checked records. A receiver
// that is behind on some stream pulls the missing suffix from whoever
// is ahead and applies the records verbatim (same sequence, timestamp
// and payload) with eventlog.AppendExact, so converged copies are
// byte-identical on disk and the segment checksums prove it. Matched
// sequence ranges whose checksums differ are counted as divergence —
// the verifiable-digest property — rather than silently overwritten.
//
// The wire plumbing (who to sync with, which ops carry digests, pulls
// and records) lives in the rendezvous package; this package owns the
// digest codec and the replicated-log bookkeeping, so both halves are
// testable in isolation.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// keyPrefix namespaces replicated copies inside the shared event log:
// this peer's own streams keep their bare topic keys, a copy of another
// peer's stream is stored under "r|<origin-urn>|<topic>".
const keyPrefix = "r|"

// TopicKey returns the event-log key a copy of origin's stream for
// topic is stored under.
func TopicKey(origin jid.ID, topic string) string {
	return keyPrefix + origin.String() + "|" + topic
}

// ParseKey reverses TopicKey. ok is false for keys that are not
// replicated copies (this peer's own topics among them).
func ParseKey(key string) (origin jid.ID, topic string, ok bool) {
	rest, found := strings.CutPrefix(key, keyPrefix)
	if !found {
		return jid.Nil, "", false
	}
	urn, topic, found := strings.Cut(rest, "|")
	if !found {
		return jid.Nil, "", false
	}
	origin, err := jid.Parse(urn)
	if err != nil {
		return jid.Nil, "", false
	}
	return origin, topic, true
}

// TopicDigest describes one (origin, topic) log stream for anti-entropy
// comparison: who numbered it, the highest contiguous sequence held,
// and checksums over the retained segments.
type TopicDigest struct {
	Origin   jid.ID
	Topic    string
	Last     uint64
	Segments []eventlog.SegmentDigest
}

// digestVersion guards the binary digest encoding.
const digestVersion = 1

// ErrBadDigest is returned by DecodeDigest for malformed input.
var ErrBadDigest = errors.New("replica: malformed digest")

// EncodeDigest renders digests into the compact binary element body a
// sync message carries: version byte, then per entry the origin's wire
// ID, the topic (uvarint length prefix), the last sequence and the
// segment checksum list.
func EncodeDigest(ds []TopicDigest) []byte {
	buf := make([]byte, 0, 64*len(ds)+1)
	buf = append(buf, digestVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = d.Origin.AppendWire(buf)
		buf = binary.AppendUvarint(buf, uint64(len(d.Topic)))
		buf = append(buf, d.Topic...)
		buf = binary.AppendUvarint(buf, d.Last)
		buf = binary.AppendUvarint(buf, uint64(len(d.Segments)))
		for _, s := range d.Segments {
			buf = binary.AppendUvarint(buf, s.FirstSeq)
			buf = binary.AppendUvarint(buf, s.LastSeq)
			buf = binary.BigEndian.AppendUint32(buf, s.CRC)
		}
	}
	return buf
}

// DecodeDigest reverses EncodeDigest.
func DecodeDigest(b []byte) ([]TopicDigest, error) {
	if len(b) == 0 || b[0] != digestVersion {
		return nil, ErrBadDigest
	}
	b = b[1:]
	count, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, ErrBadDigest
	}
	out := make([]TopicDigest, 0, count)
	for i := uint64(0); i < count; i++ {
		var d TopicDigest
		if len(b) < jid.WireSize {
			return nil, ErrBadDigest
		}
		var uuid [16]byte
		copy(uuid[:], b[1:jid.WireSize])
		if d.Origin, err = jid.FromWire(b[0], uuid); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDigest, err)
		}
		b = b[jid.WireSize:]
		var n uint64
		if n, b, err = takeUvarint(b); err != nil {
			return nil, err
		}
		if uint64(len(b)) < n {
			return nil, ErrBadDigest
		}
		d.Topic = string(b[:n])
		b = b[n:]
		if d.Last, b, err = takeUvarint(b); err != nil {
			return nil, err
		}
		var segs uint64
		if segs, b, err = takeUvarint(b); err != nil {
			return nil, err
		}
		if segs > 1<<20 {
			return nil, ErrBadDigest
		}
		for j := uint64(0); j < segs; j++ {
			var s eventlog.SegmentDigest
			if s.FirstSeq, b, err = takeUvarint(b); err != nil {
				return nil, err
			}
			if s.LastSeq, b, err = takeUvarint(b); err != nil {
				return nil, err
			}
			if len(b) < 4 {
				return nil, ErrBadDigest
			}
			s.CRC = binary.BigEndian.Uint32(b[:4])
			b = b[4:]
			d.Segments = append(d.Segments, s)
		}
		out = append(out, d)
	}
	return out, nil
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrBadDigest
	}
	return v, b[n:], nil
}

// Diverged reports whether two digests of the same stream disagree on
// the content of a sequence range both fully retain: a sealed segment
// present on both sides with the same (first, last) range but a
// different checksum. Replicas converge from the same record stream
// with the same retention config, so aligned ranges must match; a
// mismatch means one copy is corrupt or the streams forked.
func Diverged(a, b []eventlog.SegmentDigest) bool {
	byRange := make(map[[2]uint64]uint32, len(a))
	for _, s := range a {
		byRange[[2]uint64{s.FirstSeq, s.LastSeq}] = s.CRC
	}
	for _, s := range b {
		if crc, ok := byRange[[2]uint64{s.FirstSeq, s.LastSeq}]; ok && crc != s.CRC {
			return true
		}
	}
	return false
}

// Store is one peer's view of the replicated logs: its own streams
// (origin == self, bare topic keys) plus the copies of other replicas'
// streams it maintains, all inside the one eventlog.
type Store struct {
	log  *eventlog.Log
	self jid.ID
}

// NewStore wraps the peer's event log for replication bookkeeping.
func NewStore(log *eventlog.Log, self jid.ID) *Store {
	return &Store{log: log, self: self}
}

// key routes an (origin, topic) stream to its event-log key: this
// peer's own streams live under the bare topic.
func (st *Store) key(origin jid.ID, topic string) string {
	if origin == st.self {
		return topic
	}
	return TopicKey(origin, topic)
}

// Last returns the highest contiguous sequence held for the stream, 0
// when nothing is held. Both own streams and copies are contiguous by
// construction (Append numbers densely, AppendExact refuses holes), so
// the retained tail is the contiguous tail.
func (st *Store) Last(origin jid.ID, topic string) uint64 {
	_, last, ok := st.log.Range(st.key(origin, topic))
	if !ok {
		return 0
	}
	return last
}

// Key exposes the event-log key serving the stream, for callers that
// read it directly (replay serving).
func (st *Store) Key(origin jid.ID, topic string) string {
	return st.key(origin, topic)
}

// Digest summarises every stream this peer holds — own topics under
// their origin (self), replicated copies under theirs.
func (st *Store) Digest() []TopicDigest {
	var out []TopicDigest
	for _, key := range st.log.Topics() {
		origin, topic, isCopy := ParseKey(key)
		if !isCopy {
			origin, topic = st.self, key
		}
		_, last, ok := st.log.Range(key)
		if !ok {
			continue
		}
		out = append(out, TopicDigest{
			Origin:   origin,
			Topic:    topic,
			Last:     last,
			Segments: st.log.SegmentDigests(key),
		})
	}
	return out
}

// Range reports the retained sequence range held for the stream.
func (st *Store) Range(origin jid.ID, topic string) (first, last uint64, ok bool) {
	return st.log.Range(st.key(origin, topic))
}

// Apply stores one pulled record of origin's stream. Records must
// arrive in order: a non-contiguous sequence is normally skipped
// (applied=false, no error) and the next digest round re-pulls from the
// contiguous tail — at-least-once transfer, exactly-once application.
// Sequences at or below the held tail are duplicates and likewise
// skipped.
//
// srcFirst is the first sequence the serving replica still retains for
// the stream (0 when unknown). When it lies beyond this copy's next
// sequence, the records bridging the copy's tail to srcFirst were
// trimmed by retention on the serving side and can never arrive —
// skipping would re-pull the same batch every sync round forever. The
// copy is reset and restarted at the pulled record instead (reset=true,
// for the caller's gap accounting), exactly as a fresh copy starts at
// the source's retained head.
func (st *Store) Apply(origin jid.ID, topic string, seq uint64, timeMS int64, payload []byte, srcFirst uint64) (applied, reset bool, err error) {
	if origin == st.self {
		// Our own log is authoritative; never let an echo rewrite it.
		return false, false, nil
	}
	key := TopicKey(origin, topic)
	err = st.log.AppendExact(key, seq, timeMS, payload)
	if !errors.Is(err, eventlog.ErrOutOfOrder) {
		return err == nil, false, err
	}
	_, last, held := st.log.Range(key)
	if !held || srcFirst <= last+1 || seq < srcFirst {
		// Duplicate, or a transient reorder the next digest round
		// re-pulls from the contiguous tail: skip without error.
		return false, false, nil
	}
	// Retention gap on the serving side: nothing bridges (last, srcFirst).
	if _, err = st.log.Reset(key); err != nil {
		return false, false, err
	}
	err = st.log.AppendExact(key, seq, timeMS, payload)
	return err == nil, true, err
}

// Read streams held records of the stream after the given sequence, up
// to max (0 for all), in order.
func (st *Store) Read(origin jid.ID, topic string, after uint64, max int, fn func(eventlog.Entry) error) error {
	return st.log.Read(st.key(origin, topic), after, max, fn)
}
