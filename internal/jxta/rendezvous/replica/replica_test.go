package replica

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

func openLog(t *testing.T) *eventlog.Log {
	t.Helper()
	l, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestTopicKeyRoundTrip(t *testing.T) {
	origin := jid.FromSeed(jid.KindPeer, 42)
	for _, topic := range []string{"news", "with|pipe", "r|tricky", ""} {
		key := TopicKey(origin, topic)
		got, gotTopic, ok := ParseKey(key)
		if !ok {
			t.Fatalf("ParseKey(%q): not a replica key", key)
		}
		if got != origin || gotTopic != topic {
			t.Fatalf("ParseKey(%q) = (%v, %q), want (%v, %q)", key, got, gotTopic, origin, topic)
		}
	}
}

func TestParseKeyRejectsOwnTopics(t *testing.T) {
	for _, key := range []string{"news", "r|", "r|not-a-urn|topic", ""} {
		if _, _, ok := ParseKey(key); ok {
			t.Fatalf("ParseKey(%q) accepted a non-replica key", key)
		}
	}
}

func TestDigestCodecRoundTrip(t *testing.T) {
	ds := []TopicDigest{
		{
			Origin: jid.FromSeed(jid.KindPeer, 1),
			Topic:  "alpha",
			Last:   107,
			Segments: []eventlog.SegmentDigest{
				{FirstSeq: 1, LastSeq: 50, CRC: 0xdeadbeef},
				{FirstSeq: 51, LastSeq: 107, CRC: 0x01},
			},
		},
		{Origin: jid.FromSeed(jid.KindPeer, 2), Topic: "", Last: 0},
	}
	got, err := DecodeDigest(EncodeDigest(ds))
	if err != nil {
		t.Fatalf("DecodeDigest: %v", err)
	}
	if len(got) != len(ds) {
		t.Fatalf("got %d digests, want %d", len(got), len(ds))
	}
	for i := range ds {
		if got[i].Origin != ds[i].Origin || got[i].Topic != ds[i].Topic || got[i].Last != ds[i].Last {
			t.Fatalf("digest %d = %+v, want %+v", i, got[i], ds[i])
		}
		if len(got[i].Segments) != len(ds[i].Segments) {
			t.Fatalf("digest %d: %d segments, want %d", i, len(got[i].Segments), len(ds[i].Segments))
		}
		for j := range ds[i].Segments {
			if got[i].Segments[j] != ds[i].Segments[j] {
				t.Fatalf("digest %d seg %d = %+v, want %+v", i, j, got[i].Segments[j], ds[i].Segments[j])
			}
		}
	}
}

func TestDecodeDigestRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{99},         // bad version
		{1, 0xff},    // truncated count varint
		{1, 1},       // count says 1, no entry bytes
		{1, 1, 0x03}, // bad kind byte, truncated wire ID
	}
	for _, b := range cases {
		if _, err := DecodeDigest(b); err == nil {
			t.Fatalf("DecodeDigest(%v) accepted garbage", b)
		}
	}
	// Truncate a valid encoding at every length; none may panic, all
	// must error.
	full := EncodeDigest([]TopicDigest{{
		Origin:   jid.FromSeed(jid.KindPeer, 7),
		Topic:    "t",
		Last:     3,
		Segments: []eventlog.SegmentDigest{{FirstSeq: 1, LastSeq: 3, CRC: 5}},
	}})
	for n := range len(full) {
		if _, err := DecodeDigest(full[:n]); err == nil {
			t.Fatalf("DecodeDigest accepted truncation at %d/%d bytes", n, len(full))
		}
	}
}

func TestDiverged(t *testing.T) {
	a := []eventlog.SegmentDigest{{FirstSeq: 1, LastSeq: 10, CRC: 1}, {FirstSeq: 11, LastSeq: 20, CRC: 2}}
	same := []eventlog.SegmentDigest{{FirstSeq: 1, LastSeq: 10, CRC: 1}}
	if Diverged(a, same) {
		t.Fatal("matching overlap reported as diverged")
	}
	// Different ranges (e.g. one side compacted further) are not
	// comparable, so not divergence.
	shifted := []eventlog.SegmentDigest{{FirstSeq: 5, LastSeq: 20, CRC: 99}}
	if Diverged(a, shifted) {
		t.Fatal("non-aligned ranges reported as diverged")
	}
	bad := []eventlog.SegmentDigest{{FirstSeq: 11, LastSeq: 20, CRC: 3}}
	if !Diverged(a, bad) {
		t.Fatal("mismatched checksum on aligned range not reported")
	}
}

func TestStoreApplyAndRead(t *testing.T) {
	self := jid.FromSeed(jid.KindPeer, 1)
	origin := jid.FromSeed(jid.KindPeer, 2)
	st := NewStore(openLog(t), self)

	now := time.Now().UnixMilli()
	for seq := uint64(1); seq <= 3; seq++ {
		applied, _, err := st.Apply(origin, "news", seq, now, []byte{byte(seq)}, 0)
		if err != nil || !applied {
			t.Fatalf("Apply(%d) = (%v, %v), want applied", seq, applied, err)
		}
	}
	// Duplicate and gapped sequences are skipped without error.
	if applied, _, err := st.Apply(origin, "news", 2, now, []byte{2}, 0); err != nil || applied {
		t.Fatalf("duplicate Apply = (%v, %v), want skip", applied, err)
	}
	if applied, _, err := st.Apply(origin, "news", 9, now, []byte{9}, 0); err != nil || applied {
		t.Fatalf("gapped Apply = (%v, %v), want skip", applied, err)
	}
	// Echoes of our own stream never touch the authoritative log.
	if applied, _, err := st.Apply(self, "news", 1, now, []byte{1}, 0); err != nil || applied {
		t.Fatalf("self Apply = (%v, %v), want skip", applied, err)
	}

	if last := st.Last(origin, "news"); last != 3 {
		t.Fatalf("Last = %d, want 3", last)
	}
	if _, _, held := st.Range(origin, "news"); !held {
		t.Fatal("Range holds nothing of news")
	}
	if _, _, held := st.Range(origin, "other"); held {
		t.Fatal("Range holds a stream never applied")
	}

	var seqs []uint64
	err := st.Read(origin, "news", 1, 0, func(e eventlog.Entry) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil || len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("Read after 1 = %v (%v), want [2 3]", seqs, err)
	}
}

func TestStoreApplyStartsAtRetentionHead(t *testing.T) {
	// A fresh copy of a stream whose source already compacted its
	// prefix starts at the source's retained head, not at 1.
	st := NewStore(openLog(t), jid.FromSeed(jid.KindPeer, 1))
	origin := jid.FromSeed(jid.KindPeer, 2)
	if applied, _, err := st.Apply(origin, "news", 40, 0, []byte("x"), 40); err != nil || !applied {
		t.Fatalf("Apply(40) on empty copy = (%v, %v), want applied", applied, err)
	}
	if applied, _, err := st.Apply(origin, "news", 41, 0, []byte("y"), 40); err != nil || !applied {
		t.Fatalf("Apply(41) = (%v, %v), want applied", applied, err)
	}
	if first, last, ok := func() (uint64, uint64, bool) {
		var f, l uint64
		var any bool
		_ = st.Read(origin, "news", 0, 0, func(e eventlog.Entry) error {
			if !any {
				f = e.Seq
				any = true
			}
			l = e.Seq
			return nil
		})
		return f, l, any
	}(); !ok || first != 40 || last != 41 {
		t.Fatalf("copy range = [%d,%d] ok=%v, want [40,41]", first, last, ok)
	}
}

func TestStoreApplyResetsPastRetentionGap(t *testing.T) {
	// The copy holds 1..3; the serving replica's retained head moved to
	// 10. Without the stamped head the record is a transient reorder and
	// is skipped; with it, the bridge records provably no longer exist,
	// so the copy must reset and restart at the head instead of
	// re-pulling the same batch forever.
	st := NewStore(openLog(t), jid.FromSeed(jid.KindPeer, 1))
	origin := jid.FromSeed(jid.KindPeer, 2)
	for seq := uint64(1); seq <= 3; seq++ {
		if applied, _, err := st.Apply(origin, "news", seq, 0, []byte{byte(seq)}, 1); err != nil || !applied {
			t.Fatalf("Apply(%d) = (%v, %v), want applied", seq, applied, err)
		}
	}
	// No stamped head (0) or a head we still bridge (4): skip, no reset.
	if applied, reset, err := st.Apply(origin, "news", 10, 0, []byte{10}, 0); err != nil || applied || reset {
		t.Fatalf("unstamped gapped Apply = (%v, %v, %v), want skip", applied, reset, err)
	}
	if applied, reset, err := st.Apply(origin, "news", 10, 0, []byte{10}, 4); err != nil || applied || reset {
		t.Fatalf("bridged-head Apply = (%v, %v, %v), want skip", applied, reset, err)
	}
	if last := st.Last(origin, "news"); last != 3 {
		t.Fatalf("tail moved to %d on skipped applies, want 3", last)
	}
	// Head 10 > tail+1: authoritative retention gap — reset and restart.
	applied, reset, err := st.Apply(origin, "news", 10, 0, []byte{10}, 10)
	if err != nil || !applied || !reset {
		t.Fatalf("gapped Apply = (%v, %v, %v), want applied+reset", applied, reset, err)
	}
	if applied, reset, err := st.Apply(origin, "news", 11, 0, []byte{11}, 10); err != nil || !applied || reset {
		t.Fatalf("follow-up Apply = (%v, %v, %v), want applied, no reset", applied, reset, err)
	}
	if first, last, ok := st.Range(origin, "news"); !ok || first != 10 || last != 11 {
		t.Fatalf("copy range after reset = [%d,%d] ok=%v, want [10,11]", first, last, ok)
	}
}

func TestStoreDigestCoversOwnAndCopies(t *testing.T) {
	self := jid.FromSeed(jid.KindPeer, 1)
	origin := jid.FromSeed(jid.KindPeer, 2)
	log := openLog(t)
	st := NewStore(log, self)

	if _, err := log.Append("mine", func(uint64) ([]byte, error) { return []byte("a"), nil }); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, _, err := st.Apply(origin, "theirs", 1, 0, []byte("b"), 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	ds := st.Digest()
	if len(ds) != 2 {
		t.Fatalf("Digest len = %d, want 2", len(ds))
	}
	byTopic := map[string]TopicDigest{}
	for _, d := range ds {
		byTopic[d.Topic] = d
	}
	if d := byTopic["mine"]; d.Origin != self || d.Last != 1 || len(d.Segments) == 0 {
		t.Fatalf("own digest wrong: %+v", d)
	}
	if d := byTopic["theirs"]; d.Origin != origin || d.Last != 1 || len(d.Segments) == 0 {
		t.Fatalf("copy digest wrong: %+v", d)
	}
}

func TestConvergedCopiesShareChecksums(t *testing.T) {
	// Pull A's records into B verbatim; the segment digests must match
	// exactly — the byte-identical convergence property.
	a := NewStore(openLog(t), jid.FromSeed(jid.KindPeer, 1))
	b := NewStore(openLog(t), jid.FromSeed(jid.KindPeer, 2))
	origin := jid.FromSeed(jid.KindPeer, 1)

	logA := a.log
	for i := range 20 {
		if _, err := logA.Append("news", func(uint64) ([]byte, error) {
			return []byte{byte(i)}, nil
		}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	err := a.Read(origin, "news", 0, 0, func(e eventlog.Entry) error {
		_, _, err := b.Apply(origin, "news", e.Seq, e.TimeMS, e.Payload, 1)
		return err
	})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}

	da := a.log.SegmentDigests("news")
	db := b.log.SegmentDigests(TopicKey(origin, "news"))
	if len(da) == 0 || len(da) != len(db) {
		t.Fatalf("segment digests differ in count: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, da[i], db[i])
		}
	}
	if Diverged(da, db) {
		t.Fatal("converged copies reported diverged")
	}
}

// FuzzTopicDigest: arbitrary bytes never make DecodeDigest panic, what
// it decodes encodes back to itself, and a digest built from arbitrary
// fields comes back from its encoding as it was.
func FuzzTopicDigest(f *testing.F) {
	f.Add(EncodeDigest([]TopicDigest{{Origin: jid.FromSeed(jid.KindPeer, 3), Topic: "news", Last: 9,
		Segments: []eventlog.SegmentDigest{{FirstSeq: 1, LastSeq: 9, CRC: 0xdeadbeef}}}}), uint64(3), "news", uint64(9), []byte{1, 2, 3})
	f.Add([]byte{digestVersion, 1}, uint64(0), "", uint64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, origin uint64, topic string, last uint64, segs []byte) {
		if ds, err := DecodeDigest(raw); err == nil {
			again, err := DecodeDigest(EncodeDigest(ds))
			if err != nil || !reflect.DeepEqual(again, ds) {
				t.Fatalf("decoded %+v, which encodes to %+v (%v)", ds, again, err)
			}
		}
		d := TopicDigest{Origin: jid.FromSeed(jid.KindPeer, origin), Topic: topic, Last: last}
		for ; len(segs) >= 20; segs = segs[20:] {
			d.Segments = append(d.Segments, eventlog.SegmentDigest{FirstSeq: binary.BigEndian.Uint64(segs), LastSeq: binary.BigEndian.Uint64(segs[8:]), CRC: binary.BigEndian.Uint32(segs[16:])})
		}
		x := []TopicDigest{d, {Origin: jid.FromSeed(jid.KindGroup, ^origin), Topic: topic + "/2"}}
		if got, err := DecodeDigest(EncodeDigest(x)); err != nil || !reflect.DeepEqual(got, x) {
			t.Fatalf("DecodeDigest(EncodeDigest(%+v)) = %+v, %v", x, got, err)
		}
	})
}
