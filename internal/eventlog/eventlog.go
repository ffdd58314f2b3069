// Package eventlog is the durability layer of the rendezvous mesh: a
// per-topic append-only log that rendezvous peers write while fanning
// events out, and read back to serve replay requests from subscribers
// that joined or reconnected after a publish.
//
// Storage model: one directory per topic, holding fixed-layout segment
// files named after the first sequence number they contain. Every
// record is CRC-checked, so a torn tail left by a crash mid-append is
// detected and truncated on the next Open — recovery never surfaces a
// corrupt entry. Retention is by segment: when the active segment fills
// past Retention.SegmentBytes it is sealed and a new one starts, and
// sealed segments are deleted oldest-first once the topic exceeds
// Retention.MaxBytes or a segment's newest record is older than
// Retention.MaxAge. Sequence numbers are per-topic, contiguous and
// start at 1; a restarted peer resumes the numbering its log recovered.
//
// The log stores opaque payloads. The rendezvous layer stores fully
// encoded endpoint frames, so serving a replay is a raw frame send with
// no re-marshalling.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/obs"
)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

// Sync policies, weakest to strongest.
const (
	// SyncNone never fsyncs: the OS page cache decides. A machine crash
	// can lose the tail, which recovery then truncates — the replay
	// protocol's at-least-once contract absorbs the loss upstream.
	SyncNone SyncPolicy = iota
	// SyncRoll fsyncs a segment once, when it is sealed.
	SyncRoll
	// SyncAlways fsyncs after every append.
	SyncAlways
)

// ParseSyncPolicy maps the Config-file spellings to a policy: "" or
// "none", "roll", "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "none":
		return SyncNone, nil
	case "roll":
		return SyncRoll, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("eventlog: unknown sync policy %q", s)
}

// String returns the ParseSyncPolicy spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncRoll:
		return "roll"
	case SyncAlways:
		return "always"
	default:
		return "none"
	}
}

// Retention bounds how much history a topic keeps. Zero fields take the
// defaults below; MaxAge zero means no age limit.
type Retention struct {
	// SegmentBytes is the size at which the active segment is sealed.
	SegmentBytes int64
	// MaxBytes caps the topic's total size; oldest sealed segments are
	// deleted first. The active segment is never deleted.
	MaxBytes int64
	// MaxAge drops sealed segments whose newest record is older.
	MaxAge time.Duration
}

// Retention defaults.
const (
	DefaultSegmentBytes = 1 << 20  // 1 MiB
	DefaultMaxBytes     = 64 << 20 // 64 MiB per topic
)

// Config configures a Log.
type Config struct {
	// Dir is the root directory; one subdirectory per topic is created
	// beneath it.
	Dir string
	// Retention bounds per-topic history.
	Retention Retention
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// Clock substitutes the time source (tests). Nil means time.Now.
	Clock func() time.Time
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("eventlog: closed")

// ErrOutOfOrder is returned by AppendExact when the supplied sequence
// number is not the topic's next: an anti-entropy import must apply a
// pulled suffix contiguously or not at all.
var ErrOutOfOrder = errors.New("eventlog: non-contiguous sequence")

// Record layout: magic(1) seq(8) unix-ms(8) len(4) crc32c(4) payload.
// The CRC covers the seq/time/len header fields and the payload, so a
// bit flip anywhere in a record is detected.
const (
	recMagic   = 0xE7
	headerSize = 1 + 8 + 8 + 4 + 4
	// maxRecordBytes bounds a single payload; anything larger in a
	// segment is treated as corruption.
	maxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// topicFile is the metadata file inside a topic directory holding the
// raw topic string (directory names are sanitized and hashed).
const topicFile = "TOPIC"

// Entry is one replayable record.
type Entry struct {
	// Seq is the per-topic sequence number, contiguous from 1.
	Seq uint64
	// TimeMS is the append time in unix milliseconds.
	TimeMS int64
	// Payload is the stored bytes. It is only valid during the Read
	// callback; callers must copy to retain.
	Payload []byte
}

// segment is one on-disk segment file's recovered metadata.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
	size     int64
	lastMS   int64  // append time of the newest record
	crc      uint32 // CRC-32C over the segment's raw bytes (valid prefix)
}

func (s *segment) entries() int64 { return int64(s.lastSeq-s.firstSeq) + 1 }

// topicLog is one topic's segments and append state.
type topicLog struct {
	mu      sync.Mutex
	topic   string
	dir     string
	segs    []*segment // oldest..newest; the last is the active one
	active  *os.File   // append handle for segs[last]; nil until first append
	nextSeq uint64
	scratch []byte
	// resume is where the last max-bounded Read stopped, so that the
	// Read that continues it does not scan the segment from its start.
	resume readPos
}

// readPos says that in seg the record after seq starts at off.
// Segments only grow, so it holds for as long as seg is retained.
type readPos struct {
	seg *segment
	seq uint64
	off int64
}

// Log is a set of per-topic append-only logs rooted at one directory.
type Log struct {
	cfg Config
	now func() time.Time

	mu     sync.Mutex
	topics map[string]*topicLog
	closed bool

	appended  atomic.Int64 // records appended
	replayed  atomic.Int64 // records served through Read
	truncated atomic.Int64 // records dropped by retention or corruption
	recovered atomic.Int64 // records validated by the Open scan
	tornTails atomic.Int64 // tail truncations performed by recovery
	ioErrors  atomic.Int64 // append/fsync/open failures

	// errMu guards lastErr, the sticky most-recent I/O failure cleared
	// by the next successful append: the /health degraded-state source.
	errMu   sync.Mutex
	lastErr error
}

// recordErr notes an append-path I/O failure: the counter feeds the
// tps_eventlog_io_errors_total metric and the sticky error degrades
// /health until a later append succeeds.
func (l *Log) recordErr(err error) {
	l.ioErrors.Add(1)
	l.errMu.Lock()
	l.lastErr = err
	l.errMu.Unlock()
}

// clearErr marks the log healthy again after a successful append.
func (l *Log) clearErr() {
	l.errMu.Lock()
	l.lastErr = nil
	l.errMu.Unlock()
}

// Err returns the most recent append-path I/O failure, or nil while the
// log is healthy. The error is sticky until a later append succeeds, so
// a dying disk stays visible on /health between write attempts.
func (l *Log) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.lastErr
}

// Open creates (or recovers) the log rooted at cfg.Dir. Every topic
// directory found is scanned: CRC-valid, sequence-contiguous records
// are indexed, a torn tail is truncated in place, and anything after a
// corruption or sequence gap is discarded — the log that Open returns
// only ever serves entries that were fully written.
func Open(cfg Config) (*Log, error) {
	if cfg.Dir == "" {
		return nil, errors.New("eventlog: Config.Dir is required")
	}
	if cfg.Retention.SegmentBytes <= 0 {
		cfg.Retention.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.Retention.MaxBytes <= 0 {
		cfg.Retention.MaxBytes = DefaultMaxBytes
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l := &Log{cfg: cfg, now: now, topics: make(map[string]*topicLog)}
	dirs, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tdir := filepath.Join(cfg.Dir, d.Name())
		raw, err := os.ReadFile(filepath.Join(tdir, topicFile))
		if err != nil || topicDirName(string(raw)) != d.Name() {
			// Not a topic directory we wrote, or one whose TOPIC a crash
			// tore: the name is not known until getTopic is asked for
			// it, and finds the directory.
			continue
		}
		t := &topicLog{topic: string(raw), dir: tdir}
		if err := l.recoverTopic(t); err != nil {
			return nil, err
		}
		l.topics[t.topic] = t
	}
	return l, nil
}

// recoverTopic scans a topic directory's segments in order, validating
// records and repairing crash damage.
func (l *Log) recoverTopic(t *topicLog) error {
	names, err := filepath.Glob(filepath.Join(t.dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("eventlog: %w", err)
	}
	sort.Strings(names) // zero-padded first-seq names sort numerically
	var expected uint64
	drop := false
	for _, path := range names {
		if drop {
			// A prior segment ended in corruption or a gap: everything
			// after it is unreachable history. Count and remove.
			if sc, err := scanSegment(path); err == nil && sc.count > 0 {
				l.truncated.Add(sc.count)
			}
			_ = os.Remove(path)
			continue
		}
		sc, err := scanSegment(path)
		if err != nil {
			return err
		}
		if sc.count == 0 {
			// Nothing valid (e.g. a crash before the first record hit the
			// disk): remove the husk.
			if sc.torn {
				l.tornTails.Add(1)
			}
			_ = os.Remove(path)
			continue
		}
		if expected != 0 && sc.firstSeq != expected {
			// Sequence discontinuity between segments: the suffix cannot
			// be trusted. Keep the contiguous prefix only.
			drop = true
			l.truncated.Add(sc.count)
			_ = os.Remove(path)
			continue
		}
		if sc.torn {
			if err := os.Truncate(path, sc.goodSize); err != nil {
				return fmt.Errorf("eventlog: truncate torn tail of %s: %w", path, err)
			}
			l.tornTails.Add(1)
		}
		t.segs = append(t.segs, &segment{
			path:     path,
			firstSeq: sc.firstSeq,
			lastSeq:  sc.lastSeq,
			size:     sc.goodSize,
			lastMS:   sc.lastMS,
			crc:      sc.crc,
		})
		l.recovered.Add(sc.count)
		expected = sc.lastSeq + 1
	}
	if expected == 0 {
		expected = 1
	}
	t.nextSeq = expected
	return nil
}

// scanResult is one segment's validation outcome.
type scanResult struct {
	firstSeq uint64
	lastSeq  uint64
	lastMS   int64
	count    int64
	goodSize int64  // bytes up to and including the last valid record
	crc      uint32 // CRC-32C over the valid prefix bytes
	torn     bool   // file extends past goodSize with invalid data
}

// scanSegment walks a segment file record by record, stopping at the
// first record that fails validation (bad magic, implausible length,
// CRC mismatch, short read, or a non-contiguous sequence number).
func scanSegment(path string) (scanResult, error) {
	var sc scanResult
	f, err := os.Open(path)
	if err != nil {
		return sc, fmt.Errorf("eventlog: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return sc, fmt.Errorf("eventlog: %w", err)
	}
	fileSize := info.Size()
	var hdr [headerSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			sc.torn = sc.goodSize < fileSize
			return sc, nil
		}
		seq := binary.BigEndian.Uint64(hdr[1:9])
		ms := int64(binary.BigEndian.Uint64(hdr[9:17]))
		n := binary.BigEndian.Uint32(hdr[17:21])
		crc := binary.BigEndian.Uint32(hdr[21:25])
		if hdr[0] != recMagic || n > maxRecordBytes ||
			(sc.count > 0 && seq != sc.lastSeq+1) {
			sc.torn = true
			return sc, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			sc.torn = true
			return sc, nil
		}
		sum := crc32.Checksum(hdr[1:21], crcTable)
		if crc32.Update(sum, crcTable, payload) != crc {
			sc.torn = true
			return sc, nil
		}
		if sc.count == 0 {
			sc.firstSeq = seq
		}
		sc.lastSeq = seq
		sc.lastMS = ms
		sc.count++
		sc.goodSize += headerSize + int64(n)
		sc.crc = crc32.Update(sc.crc, crcTable, hdr[:])
		sc.crc = crc32.Update(sc.crc, crcTable, payload)
	}
}

// topicDirName derives a filesystem-safe directory name for a topic:
// a sanitized prefix for readability plus a hash for uniqueness.
func topicDirName(topic string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, topic)
	if len(safe) > 40 {
		safe = safe[:40]
	}
	if safe == "" {
		safe = "topic"
	}
	return fmt.Sprintf("%s-%08x", safe, crc32.Checksum([]byte(topic), crcTable))
}

// getTopic returns the topic's log, creating its directory on first
// use. A directory Open did not register — its TOPIC file torn by a
// crash — is recovered here, when the name it derives from is asked
// for: its history and numbering come back under that name, and TOPIC
// is written again.
func (l *Log) getTopic(topic string, create bool) (*topicLog, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if t, ok := l.topics[topic]; ok {
		return t, nil
	}
	dir := filepath.Join(l.cfg.Dir, topicDirName(topic))
	_, err := os.Stat(dir)
	if !create && err != nil {
		return nil, nil
	}
	// The log keeps the name for good; the caller's may be a piece of a
	// received frame, which would stay alive with it.
	t := &topicLog{topic: strings.Clone(topic), dir: dir, nextSeq: 1}
	if err == nil {
		if err := l.recoverTopic(t); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	// Written beside and renamed into place: a crash leaves the whole
	// name or the old file, never a torn one.
	tmp := filepath.Join(dir, topicFile+".tmp")
	if err := os.WriteFile(tmp, []byte(topic), 0o644); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, topicFile)); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l.topics[t.topic] = t
	return t, nil
}

// Append reserves the topic's next sequence number, hands it to build,
// and durably stores the bytes build returns under that number. The
// callback runs with the topic locked, so the caller can stamp the
// sequence into the payload it encodes and the stored bytes match what
// it then sends — there is no window for another append to interleave.
// The payload is fully copied before Append returns; build may recycle
// it afterwards.
func (l *Log) Append(topic string, build func(seq uint64) ([]byte, error)) (uint64, error) {
	t, err := l.getTopic(topic, true)
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			l.recordErr(err)
		}
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.nextSeq
	payload, err := build(seq)
	if err != nil {
		return 0, err
	}
	if err := l.appendRecordLocked(t, seq, l.now().UnixMilli(), payload); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendExact stores payload under a caller-chosen sequence number and
// timestamp. This is the anti-entropy import path: a replica pulling a
// suffix of another peer's log must store records byte-identically —
// same sequence, same timestamp, same payload yield the same record
// bytes and (with matching retention config) the same segment files, so
// segment checksums verify convergence. The first record of an empty
// topic may start at any sequence (the source's retention may have
// trimmed the head, exactly like recovery accepting a trimmed log);
// afterwards seq must be exactly the topic's next sequence, or
// ErrOutOfOrder is returned without writing.
func (l *Log) AppendExact(topic string, seq uint64, timeMS int64, payload []byte) error {
	if seq == 0 {
		return fmt.Errorf("%w: sequence numbers start at 1", ErrOutOfOrder)
	}
	t, err := l.getTopic(topic, true)
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			l.recordErr(err)
		}
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextSeq == 1 && !t.hasEntriesLocked() {
		t.nextSeq = seq
	}
	if seq != t.nextSeq {
		return fmt.Errorf("%w: got seq %d, next is %d", ErrOutOfOrder, seq, t.nextSeq)
	}
	return l.appendRecordLocked(t, seq, timeMS, payload)
}

// hasEntriesLocked reports whether any retained segment holds a record.
func (t *topicLog) hasEntriesLocked() bool {
	for _, seg := range t.segs {
		if seg.firstSeq != 0 {
			return true
		}
	}
	return false
}

// appendRecordLocked encodes and writes one record with the given
// coordinates, rolling/retaining segments as needed and keeping the
// active segment's running CRC current. I/O failures are recorded for
// the health surface; success clears the degraded state.
func (l *Log) appendRecordLocked(t *topicLog, seq uint64, timeMS int64, payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("eventlog: record of %d bytes exceeds limit", len(payload))
	}
	if err := l.ensureActiveLocked(t, int64(len(payload)), seq); err != nil {
		l.recordErr(err)
		return err
	}
	need := headerSize + len(payload)
	if cap(t.scratch) < need {
		t.scratch = make([]byte, need)
	}
	rec := t.scratch[:need]
	rec[0] = recMagic
	binary.BigEndian.PutUint64(rec[1:9], seq)
	binary.BigEndian.PutUint64(rec[9:17], uint64(timeMS))
	binary.BigEndian.PutUint32(rec[17:21], uint32(len(payload)))
	sum := crc32.Checksum(rec[1:21], crcTable)
	binary.BigEndian.PutUint32(rec[21:25], crc32.Update(sum, crcTable, payload))
	copy(rec[headerSize:], payload)
	if _, err := t.active.Write(rec); err != nil {
		err = fmt.Errorf("eventlog: append %s: %w", t.topic, err)
		l.recordErr(err)
		return err
	}
	if l.cfg.Sync == SyncAlways {
		if err := t.active.Sync(); err != nil {
			err = fmt.Errorf("eventlog: sync %s: %w", t.topic, err)
			l.recordErr(err)
			return err
		}
	}
	seg := t.segs[len(t.segs)-1]
	if seg.firstSeq == 0 {
		seg.firstSeq = seq
	}
	seg.lastSeq = seq
	seg.lastMS = timeMS
	seg.size += int64(need)
	seg.crc = crc32.Update(seg.crc, crcTable, rec)
	t.nextSeq = seq + 1
	l.appended.Add(1)
	l.clearErr()
	return nil
}

// ensureActiveLocked makes sure the topic has an open active segment
// with room for a payload of n bytes, sealing and rolling as needed,
// then enforces retention over the sealed segments. nextSeq names a
// freshly started segment file (it is the sequence about to be written,
// which AppendExact may have chosen).
func (l *Log) ensureActiveLocked(t *topicLog, n int64, nextSeq uint64) error {
	roll := t.active == nil
	if !roll {
		seg := t.segs[len(t.segs)-1]
		if seg.size > 0 && seg.size+headerSize+n > l.cfg.Retention.SegmentBytes {
			roll = true
		}
	}
	if roll {
		if t.active != nil {
			if l.cfg.Sync == SyncRoll {
				_ = t.active.Sync()
			}
			_ = t.active.Close()
			t.active = nil
		}
		reopen := false
		if len(t.segs) > 0 {
			// Recovery leaves the last scanned segment as the active one:
			// reopen it for append instead of starting a new file, unless
			// it is already full.
			seg := t.segs[len(t.segs)-1]
			if seg.size+headerSize+n <= l.cfg.Retention.SegmentBytes {
				reopen = true
			}
		}
		var path string
		if reopen {
			path = t.segs[len(t.segs)-1].path
		} else {
			path = filepath.Join(t.dir, fmt.Sprintf("%020d.seg", nextSeq))
			t.segs = append(t.segs, &segment{path: path})
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("eventlog: %w", err)
		}
		t.active = f
		l.enforceRetentionLocked(t)
	}
	return nil
}

// enforceRetentionLocked deletes sealed segments that push the topic
// over its byte budget or age out entirely. The active (last) segment
// is exempt.
func (l *Log) enforceRetentionLocked(t *topicLog) {
	var total int64
	for _, s := range t.segs {
		total += s.size
	}
	nowMS := l.now().UnixMilli()
	for len(t.segs) > 1 {
		oldest := t.segs[0]
		over := total > l.cfg.Retention.MaxBytes
		aged := l.cfg.Retention.MaxAge > 0 && oldest.lastMS > 0 &&
			nowMS-oldest.lastMS > l.cfg.Retention.MaxAge.Milliseconds()
		if !over && !aged {
			return
		}
		_ = os.Remove(oldest.path)
		if oldest.lastSeq >= oldest.firstSeq && oldest.firstSeq > 0 {
			l.truncated.Add(oldest.entries())
		}
		total -= oldest.size
		t.segs = t.segs[1:]
	}
}

// Read streams the topic's retained entries with sequence numbers
// strictly greater than after, in order, to fn. A non-zero max bounds
// how many entries are delivered; a Read that stops at max is continued
// cheaply by one that asks for what comes after the last entry it got
// (the next window of a replay or a sync pull). Reading holds the
// topic's lock, so it is safe against concurrent appends; fn's Entry
// payload is reused between calls and must be copied to retain. fn
// returning an error stops the stream and surfaces the error.
func (l *Log) Read(topic string, after uint64, max int, fn func(Entry) error) error {
	t, err := l.getTopic(topic, false)
	if err != nil || t == nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sent := 0
	var payload []byte
	for _, seg := range t.segs {
		if seg.lastSeq <= after || seg.firstSeq == 0 {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("eventlog: %w", err)
		}
		var hdr [headerSize]byte
		remaining := seg.size
		if r := t.resume; r.seg == seg && r.seq == after {
			if _, err := f.Seek(r.off, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("eventlog: read %s: %w", seg.path, err)
			}
			remaining -= r.off
		}
		for remaining >= headerSize {
			if _, err := io.ReadFull(f, hdr[:]); err != nil {
				f.Close()
				return fmt.Errorf("eventlog: read %s: %w", seg.path, err)
			}
			seq := binary.BigEndian.Uint64(hdr[1:9])
			ms := int64(binary.BigEndian.Uint64(hdr[9:17]))
			n := binary.BigEndian.Uint32(hdr[17:21])
			if cap(payload) < int(n) {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if _, err := io.ReadFull(f, payload); err != nil {
				f.Close()
				return fmt.Errorf("eventlog: read %s: %w", seg.path, err)
			}
			remaining -= headerSize + int64(n)
			if seq <= after {
				continue
			}
			if err := fn(Entry{Seq: seq, TimeMS: ms, Payload: payload}); err != nil {
				f.Close()
				return err
			}
			l.replayed.Add(1)
			sent++
			if max > 0 && sent >= max {
				t.resume = readPos{seg: seg, seq: seq, off: seg.size - remaining}
				f.Close()
				return nil
			}
		}
		f.Close()
	}
	return nil
}

// Reset discards every retained record of the topic and restarts its
// numbering: the next AppendExact may begin at any sequence, exactly as
// on a topic that never held anything. The anti-entropy import uses it
// when the source's retention has trimmed past this copy's contiguous
// tail — the bridge records no longer exist anywhere, so the copy
// restarts at the source's retained head instead of waiting forever for
// sequences that cannot arrive. Dropped records feed the truncated
// counter. Resetting an unknown topic is a no-op.
func (l *Log) Reset(topic string) (dropped int64, err error) {
	t, err := l.getTopic(topic, false)
	if err != nil || t == nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active != nil {
		_ = t.active.Close()
		t.active = nil
	}
	for _, seg := range t.segs {
		if seg.firstSeq > 0 && seg.lastSeq >= seg.firstSeq {
			dropped += seg.entries()
		}
		_ = os.Remove(seg.path)
	}
	if dropped > 0 {
		l.truncated.Add(dropped)
	}
	t.segs = nil
	t.nextSeq = 1
	return dropped, nil
}

// Range reports the topic's retained sequence range. ok is false when
// the topic has no retained entries.
func (l *Log) Range(topic string) (first, last uint64, ok bool) {
	t, err := l.getTopic(topic, false)
	if err != nil || t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, seg := range t.segs {
		if seg.firstSeq == 0 {
			continue
		}
		if !ok {
			first = seg.firstSeq
			ok = true
		}
		last = seg.lastSeq
	}
	return first, last, ok
}

// SegmentDigest summarises one on-disk segment for anti-entropy
// verification: the sequence range it spans and the CRC-32C over its
// raw bytes (the Castagnoli-checked records laid end to end). Two
// replicas holding byte-identical copies of a log produce identical
// digests; a matched range with a differing CRC is divergence.
type SegmentDigest struct {
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	CRC      uint32 `json:"crc"`
}

// SegmentDigests returns the topic's per-segment checksums, oldest
// first. The active segment is included with its running CRC, so
// replicas that are fully caught up verify the tail too. Nil when the
// topic retains nothing.
func (l *Log) SegmentDigests(topic string) []SegmentDigest {
	t, err := l.getTopic(topic, false)
	if err != nil || t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SegmentDigest
	for _, seg := range t.segs {
		if seg.firstSeq == 0 {
			continue
		}
		out = append(out, SegmentDigest{FirstSeq: seg.firstSeq, LastSeq: seg.lastSeq, CRC: seg.crc})
	}
	return out
}

// Topics lists every topic with a log directory, sorted.
func (l *Log) Topics() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.topics))
	for name := range l.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TopicsView reports each topic's retained range and on-disk footprint,
// sorted by topic; it feeds the admin surface's log view.
func (l *Log) TopicsView() []obs.LogTopicEntry {
	out := make([]obs.LogTopicEntry, 0, 4)
	for _, topic := range l.Topics() {
		t, err := l.getTopic(topic, false)
		if err != nil || t == nil {
			continue
		}
		t.mu.Lock()
		e := obs.LogTopicEntry{Topic: topic, Segments: len(t.segs)}
		for _, seg := range t.segs {
			e.Bytes += seg.size
			if seg.firstSeq == 0 {
				continue
			}
			if e.FirstSeq == 0 {
				e.FirstSeq = seg.firstSeq
			}
			e.LastSeq = seg.lastSeq
		}
		t.mu.Unlock()
		out = append(out, e)
	}
	return out
}

// Snapshot implements obs.Provider for the "eventlog" subsystem.
func (l *Log) Snapshot() obs.Snapshot {
	var segments int
	var bytes int64
	l.mu.Lock()
	topics := make([]*topicLog, 0, len(l.topics))
	for _, t := range l.topics {
		topics = append(topics, t)
	}
	n := len(l.topics)
	l.mu.Unlock()
	for _, t := range topics {
		t.mu.Lock()
		segments += len(t.segs)
		for _, seg := range t.segs {
			bytes += seg.size
		}
		t.mu.Unlock()
	}
	return obs.Snapshot{
		Name:    "eventlog",
		Version: 1,
		Counters: map[string]int64{
			"appended":   l.appended.Load(),
			"replayed":   l.replayed.Load(),
			"truncated":  l.truncated.Load(),
			"recovered":  l.recovered.Load(),
			"torn_tails": l.tornTails.Load(),
			"io_errors":  l.ioErrors.Load(),
		},
		Gauges: map[string]float64{
			"topics":   float64(n),
			"segments": float64(segments),
			"bytes":    float64(bytes),
		},
	}
}

// Close flushes (per the sync policy) and closes every open segment.
// The log's files remain on disk for the next Open to recover.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	topics := make([]*topicLog, 0, len(l.topics))
	for _, t := range l.topics {
		topics = append(topics, t)
	}
	l.mu.Unlock()
	for _, t := range topics {
		t.mu.Lock()
		if t.active != nil {
			if l.cfg.Sync != SyncNone {
				_ = t.active.Sync()
			}
			_ = t.active.Close()
			t.active = nil
		}
		t.mu.Unlock()
	}
	return nil
}
