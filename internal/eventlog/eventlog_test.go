package eventlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func appendN(t *testing.T, l *Log, topic string, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		body := []byte(fmt.Sprintf("event-%d", i))
		seq, err := l.Append(topic, func(seq uint64) ([]byte, error) { return body, nil })
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
	}
}

func collect(t *testing.T, l *Log, topic string, after uint64) []Entry {
	t.Helper()
	var out []Entry
	err := l.Read(topic, after, 0, func(e Entry) error {
		out = append(out, Entry{Seq: e.Seq, TimeMS: e.TimeMS, Payload: append([]byte(nil), e.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "topic-a", 1, 10)
	got := collect(t, l, "topic-a", 0)
	if len(got) != 10 {
		t.Fatalf("got %d entries, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d: seq %d", i, e.Seq)
		}
		if want := fmt.Sprintf("event-%d", i+1); string(e.Payload) != want {
			t.Fatalf("entry %d: payload %q, want %q", i, e.Payload, want)
		}
	}
	// Suffix read from a cursor.
	tail := collect(t, l, "topic-a", 7)
	if len(tail) != 3 || tail[0].Seq != 8 {
		t.Fatalf("suffix read after 7: %+v", tail)
	}
	if first, last, ok := l.Range("topic-a"); !ok || first != 1 || last != 10 {
		t.Fatalf("range = %d..%d ok=%v", first, last, ok)
	}
}

func TestResetRestartsNumbering(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "topic-a", 1, 5)
	dropped, err := l.Reset("topic-a")
	if err != nil || dropped != 5 {
		t.Fatalf("Reset = (%d, %v), want 5 dropped", dropped, err)
	}
	if _, _, ok := l.Range("topic-a"); ok {
		t.Fatal("reset topic still reports a retained range")
	}
	// The empty-topic escape hatch applies again: AppendExact may restart
	// at any sequence, as on a copy re-seeded past a retention gap.
	if err := l.AppendExact("topic-a", 40, 7, []byte("x")); err != nil {
		t.Fatalf("AppendExact after Reset: %v", err)
	}
	if err := l.AppendExact("topic-a", 41, 8, []byte("y")); err != nil {
		t.Fatalf("AppendExact 41: %v", err)
	}
	if first, last, ok := l.Range("topic-a"); !ok || first != 40 || last != 41 {
		t.Fatalf("range after restart = %d..%d ok=%v, want 40..41", first, last, ok)
	}
	// Resetting a topic that never existed is a no-op.
	if dropped, err := l.Reset("nope"); err != nil || dropped != 0 {
		t.Fatalf("Reset(unknown) = (%d, %v)", dropped, err)
	}
}

func TestTopicsAreIndependent(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "a", 1, 3)
	appendN(t, l, "b", 1, 5)
	if got := collect(t, l, "a", 0); len(got) != 3 {
		t.Fatalf("topic a: %d entries", len(got))
	}
	if got := collect(t, l, "b", 0); len(got) != 5 {
		t.Fatalf("topic b: %d entries", len(got))
	}
	if topics := l.Topics(); len(topics) != 2 || topics[0] != "a" || topics[1] != "b" {
		t.Fatalf("topics = %v", topics)
	}
}

// TestTopicNameIsTheLogsOwn: the name a log keeps from a topic's first
// append is a copy. A rendezvous names the topic with a string cut from
// the received frame, and a log that kept that one would keep the frame
// — and the read chunk around it — for as long as the topic exists.
func TestTopicNameIsTheLogsOwn(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frame := []byte("....urn:jxta:group-7....")
	topic := unsafe.String(&frame[4], 16)
	appendN(t, l, topic, 1, 2)
	kept := l.Topics()
	if len(kept) != 1 || kept[0] != "urn:jxta:group-7" {
		t.Fatalf("topics = %q", kept)
	}
	if unsafe.StringData(kept[0]) == &frame[4] {
		t.Fatal("the log holds the caller's string, not a copy of it")
	}
}

func TestRecoveryResumesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "t", 1, 7)
	l.Close()

	l2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Snapshot().Counters["recovered"]; got != 7 {
		t.Fatalf("recovered = %d, want 7", got)
	}
	appendN(t, l2, "t", 8, 9) // numbering continues where recovery left off
	got := collect(t, l2, "t", 0)
	if len(got) != 9 || got[8].Seq != 9 {
		t.Fatalf("after recovery: %d entries, last %+v", len(got), got[len(got)-1])
	}
}

func TestSegmentRollAndRetentionByBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Retention: Retention{SegmentBytes: 256, MaxBytes: 600}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := bytes.Repeat([]byte("x"), 100)
	for i := 1; i <= 30; i++ {
		if _, err := l.Append("t", func(seq uint64) ([]byte, error) { return big, nil }); err != nil {
			t.Fatal(err)
		}
	}
	first, last, ok := l.Range("t")
	if !ok || last != 30 {
		t.Fatalf("range = %d..%d ok=%v", first, last, ok)
	}
	if first == 1 {
		t.Fatal("retention never dropped the oldest segment")
	}
	snap := l.Snapshot()
	if snap.Counters["truncated"] == 0 {
		t.Fatal("truncated counter not bumped by retention")
	}
	// Whatever is retained must read back contiguously up to last.
	got := collect(t, l, "t", 0)
	if uint64(len(got)) != last-first+1 || got[0].Seq != first {
		t.Fatalf("retained suffix: %d entries starting at %d, want %d..%d", len(got), got[0].Seq, first, last)
	}
}

func TestRetentionByAge(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	l, err := Open(Config{
		Dir:       t.TempDir(),
		Retention: Retention{SegmentBytes: 64, MaxAge: time.Minute},
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 4; i++ {
		if _, err := l.Append("t", func(uint64) ([]byte, error) { return payload, nil }); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Minute) // everything so far ages out
	for i := 0; i < 4; i++ {
		if _, err := l.Append("t", func(uint64) ([]byte, error) { return payload, nil }); err != nil {
			t.Fatal(err)
		}
	}
	first, _, ok := l.Range("t")
	if !ok || first <= 2 {
		t.Fatalf("aged segments not dropped: first=%d ok=%v", first, ok)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "t", 1, 5)
	l.Close()

	// Simulate a crash mid-append: garbage bytes after the last record.
	seg := findSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recMagic, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap := l2.Snapshot()
	if snap.Counters["torn_tails"] != 1 {
		t.Fatalf("torn_tails = %d, want 1", snap.Counters["torn_tails"])
	}
	got := collect(t, l2, "t", 0)
	if len(got) != 5 {
		t.Fatalf("after torn-tail recovery: %d entries, want 5", len(got))
	}
	// Appends continue cleanly past the repaired tail.
	appendN(t, l2, "t", 6, 6)
	if got := collect(t, l2, "t", 0); len(got) != 6 {
		t.Fatalf("append after repair: %d entries", len(got))
	}
}

func TestCorruptedRecordDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "t", 1, 5)
	l.Close()

	// Flip one payload byte in the middle of the segment: the CRC fails
	// there, and recovery must keep only the prefix before it.
	seg := findSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, "t", 0)
	if len(got) >= 5 {
		t.Fatalf("corrupt record not dropped: %d entries", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("event-%d", i+1); string(e.Payload) != want {
			t.Fatalf("recovered entry %d corrupted: %q", i, e.Payload)
		}
	}
}

func TestReadMaxBounds(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "t", 1, 10)
	n := 0
	if err := l.Read("t", 0, 4, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("max=4 delivered %d", n)
	}
}

// TestBoundedReadsResume reads a topic that spans several segments in
// slices, the way a paced replay does, while the log is appended to,
// trimmed by retention and reset underneath the reader. Every slice
// must continue exactly where the one before it stopped, and a slice
// that continues another must start from the remembered position
// rather than from the head of the segment.
func TestBoundedReadsResume(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), Retention: Retention{SegmentBytes: 300, MaxBytes: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	body := func(seq uint64) []byte {
		return []byte(fmt.Sprintf("event-%04d-%s", seq, bytes.Repeat([]byte("x"), 20)))
	}
	grow := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := l.Append("t", func(seq uint64) ([]byte, error) { return body(seq), nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	slice := func(after uint64, max int) []uint64 {
		t.Helper()
		var seqs []uint64
		err := l.Read("t", after, max, func(e Entry) error {
			if !bytes.Equal(e.Payload, body(e.Seq)) {
				t.Fatalf("seq %d carries %q", e.Seq, e.Payload)
			}
			seqs = append(seqs, e.Seq)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	resume := func() readPos {
		tl, _ := l.getTopic("t", false)
		tl.mu.Lock()
		defer tl.mu.Unlock()
		return tl.resume
	}

	grow(20) // 5 records a segment
	var cursor uint64
	for cursor < 20 {
		got := slice(cursor, 3)
		for i, seq := range got {
			if seq != cursor+uint64(i)+1 {
				t.Fatalf("slice after %d = %v", cursor, got)
			}
		}
		cursor += uint64(len(got))
		if r := resume(); len(got) == 3 && (r.seq != cursor || r.seg == nil) {
			t.Fatalf("after a full slice ending at %d the log remembers %+v", cursor, r)
		}
	}
	// Mid-segment the remembered offset is what the next slice uses: it
	// lies past the records already served.
	if got := slice(5, 2); len(got) != 2 || got[0] != 6 {
		t.Fatalf("slice after 5 = %v", got)
	}
	if r := resume(); r.seq != 7 || r.off == 0 {
		t.Fatalf("remembered %+v, want the record after 7 at a non-zero offset", r)
	}
	// Appends leave it valid; a reader elsewhere in the topic ignores it.
	grow(5)
	if got := slice(7, 4); len(got) != 4 || got[0] != 8 || got[3] != 11 {
		t.Fatalf("slice after 7 = %v", got)
	}
	if got := slice(2, 2); len(got) != 2 || got[0] != 3 {
		t.Fatalf("slice after 2 = %v", got)
	}
	// Retention drops the segment the position points into: the next
	// slice starts at whatever is still retained.
	slice(0, 2)
	grow(40)
	first, last, _ := l.Range("t")
	if first <= 2 {
		t.Fatalf("retention kept %d..%d, want the head gone", first, last)
	}
	if got := slice(2, 3); len(got) != 3 || got[0] != first {
		t.Fatalf("slice after 2 = %v, want from %d", got, first)
	}
	// Reset restarts the numbering: a position from before must not
	// place a read inside the new records.
	slice(first, 1)
	if _, err := l.Reset("t"); err != nil {
		t.Fatal(err)
	}
	for seq := first; seq < first+4; seq++ {
		if err := l.AppendExact("t", seq, 1, body(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := slice(first+1, 0); len(got) != 2 || got[0] != first+2 {
		t.Fatalf("after reset, slice after %d = %v", first+1, got)
	}
}

func TestUnknownTopicReadsNothing(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Read("ghost", 0, 0, func(Entry) error { t.Fatal("unexpected entry"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l.Range("ghost"); ok {
		t.Fatal("range of unknown topic reported ok")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNone, SyncRoll, SyncAlways} {
		dir := t.TempDir()
		l, err := Open(Config{Dir: dir, Sync: pol, Retention: Retention{SegmentBytes: 128}})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, "t", 1, 8)
		l.Close()
		l2, err := Open(Config{Dir: dir, Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l2, "t", 0); len(got) != 8 {
			t.Fatalf("policy %v: %d entries after reopen", pol, len(got))
		}
		l2.Close()
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
	for _, s := range []string{"", "none", "roll", "always"} {
		if _, err := ParseSyncPolicy(s); err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", s, err)
		}
	}
}

// TestConcurrentAppendAndReplay drives appends and replay reads of the
// same topic from multiple goroutines; under -race this pins the locking
// of the append/read paths, and every read must observe a contiguous
// prefix-free suffix (no holes, no torn entries).
func TestConcurrentAppendAndReplay(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), Retention: Retention{SegmentBytes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := l.Append("t", func(seq uint64) ([]byte, error) {
					return []byte(fmt.Sprintf("seq-%d", seq)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev uint64
				err := l.Read("t", 0, 0, func(e Entry) error {
					if prev != 0 && e.Seq != prev+1 {
						return fmt.Errorf("hole: %d after %d", e.Seq, prev)
					}
					if want := fmt.Sprintf("seq-%d", e.Seq); string(e.Payload) != want {
						return fmt.Errorf("entry %d: payload %q", e.Seq, e.Payload)
					}
					prev = e.Seq
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	got := collect(t, l, "t", 0)
	if len(got) != writers*perWriter {
		t.Fatalf("final count %d, want %d", len(got), writers*perWriter)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append("t", func(uint64) ([]byte, error) { return []byte("x"), nil }); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// findSegment returns the single topic's newest segment file.
func findSegment(t *testing.T, root string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(root, "*", "*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files under %s (err=%v)", root, err)
	}
	return matches[len(matches)-1]
}

// TestTornTopicFileKeepsItsHistory: a crash while the TOPIC file is
// written can leave it empty or cut short. The directory's name still
// derives from the real name, so Open must not register the history
// under what the torn file says, and the next use of the real name must
// find it: the same entries, the numbering continued, on every reopen.
func TestTornTopicFileKeepsItsHistory(t *testing.T) {
	for name, torn := range map[string][]byte{"empty": nil, "cut short": []byte("gro")} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, "group", 1, 5)
			l.Close()
			if err := os.WriteFile(filepath.Join(dir, topicDirName("group"), topicFile), torn, 0o644); err != nil {
				t.Fatal(err)
			}

			l, err = Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, topic := range l.Topics() {
				if topic != "group" {
					t.Errorf("a torn TOPIC registers the history as %q", topic)
				}
			}
			if first, last, ok := l.Range("group"); !ok || first != 1 || last != 5 {
				t.Fatalf("range of the real name = %d..%d ok=%v, want 1..5", first, last, ok)
			}
			appendN(t, l, "group", 6, 6)
			l.Close()

			l, err = Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if topics := l.Topics(); len(topics) != 1 || topics[0] != "group" {
				t.Fatalf("topics after a second reopen = %q, want [group]", topics)
			}
			got := collect(t, l, "group", 0)
			if len(got) != 6 || got[0].Seq != 1 || got[5].Seq != 6 || string(got[5].Payload) != "event-6" {
				t.Fatalf("after a second reopen: %d entries %+v, want seqs 1..6", len(got), got)
			}
			if n := l.Snapshot().Counters["truncated"]; n != 0 {
				t.Fatalf("truncated = %d, want 0", n)
			}
		})
	}
}
