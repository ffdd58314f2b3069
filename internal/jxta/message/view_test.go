package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// referenceDecode is the decoder Unmarshal was before it was built on
// NewView, written for reading: it reads the frame front to back,
// failing on the first thing it cannot take, with the error Unmarshal
// returned. NewView is held to its verdicts, and View.Message to what it
// decodes.
func referenceDecode(frame []byte) (*Message, error) {
	off := 0
	take := func(n int) ([]byte, error) {
		if len(frame)-off < n {
			return nil, ErrTruncated
		}
		b := frame[off : off+n]
		off += n
		return b, nil
	}
	id := func() (jid.ID, error) {
		b, err := take(jid.WireSize)
		if err != nil {
			return jid.Nil, err
		}
		id, err := jid.FromWire(b[0], [16]byte(b[1:]))
		if err != nil {
			return jid.Nil, fmt.Errorf("message: bad ID: %w", err)
		}
		return id, nil
	}
	short := func() (string, error) {
		n, err := take(2)
		if err != nil {
			return "", err
		}
		b, err := take(int(binary.BigEndian.Uint16(n)))
		return string(b), err
	}
	magic, err := take(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != wireMagic {
		return nil, ErrBadMagic
	}
	ver, err := take(1)
	if err != nil {
		return nil, err
	}
	if ver[0] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver[0])
	}
	m := &Message{}
	if m.ID, err = id(); err != nil {
		return nil, err
	}
	if m.Src, err = id(); err != nil {
		return nil, err
	}
	ttl, err := take(1)
	if err != nil {
		return nil, err
	}
	m.TTL = ttl[0]
	plen, err := take(1)
	if err != nil {
		return nil, err
	}
	if int(plen[0]) > MaxPathLen {
		return nil, fmt.Errorf("%w: path length %d", ErrTooLarge, plen[0])
	}
	for range plen[0] {
		p, err := id()
		if err != nil {
			return nil, err
		}
		m.Path = append(m.Path, p)
	}
	n, err := take(2)
	if err != nil {
		return nil, err
	}
	count := int(binary.BigEndian.Uint16(n))
	if count > MaxElements {
		return nil, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	if len(frame)-off < count*minElementSize {
		return nil, ErrTruncated
	}
	for range count {
		var e Element
		for _, f := range []*string{&e.Namespace, &e.Name, &e.MimeType} {
			if *f, err = short(); err != nil {
				return nil, err
			}
		}
		n, err := take(4)
		if err != nil {
			return nil, err
		}
		if size := binary.BigEndian.Uint32(n); size > MaxElementSize {
			return nil, fmt.Errorf("%w: element payload %d bytes", ErrTooLarge, size)
		}
		if e.Data, err = take(int(binary.BigEndian.Uint32(n))); err != nil {
			return nil, err
		}
		m.elements = append(m.elements, e)
	}
	if len(frame) != off {
		return nil, fmt.Errorf("message: %d trailing bytes", len(frame)-off)
	}
	return m, nil
}

// sameMessage reports whether two messages say the same: header, path
// and elements, an empty payload and none alike.
func sameMessage(a, b *Message) bool {
	if a.ID != b.ID || a.Src != b.Src || a.TTL != b.TTL || !slices.Equal(a.Path, b.Path) || a.Len() != b.Len() {
		return false
	}
	for i, e := range a.elements {
		f := b.elements[i]
		if e.Namespace != f.Namespace || e.Name != f.Name || e.MimeType != f.MimeType || !bytes.Equal(e.Data, f.Data) {
			return false
		}
	}
	return true
}

// reencoded is what a hop wrote before it forwarded bytes: the frame
// decoded, stamped by self, given the log stamps of seq when logged,
// and marshalled with the envelope — or nil when that refuses.
func reencoded(frame []byte, self jid.ID, logged bool, seq uint64, envelope []Field) ([]byte, error) {
	m, err := Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	if !m.Stamp(self) {
		return nil, ErrNoForward
	}
	if logged {
		m.ReplaceUint64("rdv", "Seq", seq)
		m.ReplaceID("rdv", "LogSrc", self)
	}
	return m.MarshalAppend(nil, envelope...)
}

// logStamps are the stamps reencoded gives a logged frame, as a durable
// hop hands them to Forward.
func logStamps(self jid.ID, seq uint64) []Element {
	return []Element{Uint64Element("rdv", "Seq", seq, nil), IDElement("rdv", "LogSrc", self, nil)}
}

// rawFrame writes a frame by hand, past what Marshal lets through: a
// path of plen hops and the elements given as namespace, name, MIME
// type and payload.
func rawFrame(ttl uint8, plen int, elements ...[4]string) []byte {
	f := append([]byte(nil), wireMagic[:]...)
	f = append(f, wireVersion)
	f = jid.FromSeed(jid.KindMessage, 1).AppendWire(f)
	f = jid.FromSeed(jid.KindPeer, 1).AppendWire(f)
	f = append(f, ttl, byte(plen))
	for i := range plen {
		f = jid.FromSeed(jid.KindPeer, uint64(100+i)).AppendWire(f)
	}
	f = append(f, byte(len(elements)>>8), byte(len(elements)))
	for _, e := range elements {
		f = appendElement(f, Element{Namespace: e[0], Name: e[1], MimeType: e[2], Data: []byte(e[3])})
	}
	return f
}

// FuzzForwardMatchesReencode holds the cut-through forward to what it
// replaced. On any bytes, NewView fails exactly when Unmarshal and the
// decoder Unmarshal was before it (referenceDecode) do, with the same
// error, and the view decodes to what that decoder decodes; and on a
// frame that decodes, Forward writes the bytes
// that decoding, Stamp, the log stamps of a durable hop and the
// enveloped marshal write — or both refuse: a spent TTL, self on the
// path, a path or an element header past the wire limits. Forward never
// writes the frame. self is a peer of its own, the frame's source or
// the first peer on its path; the envelope is the endpoint's three
// fields and one the fuzzer names, which may be a log stamp's.
func FuzzForwardMatchesReencode(f *testing.F) {
	plain, err := testMsg().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	stamped := testMsg()
	stamped.Stamp(jid.FromSeed(jid.KindPeer, 2))
	stamped.AddBytes("app", "empty", nil)
	hopped, err := stamped.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	durable, err := os.ReadFile(goldenDurableFrame)
	if err != nil {
		f.Fatal(err)
	}
	published, stored := goldenEventFrames(f)
	for _, frame := range [][]byte{plain, hopped, durable, published, stored} {
		for pick := range uint8(3) {
			f.Add(frame, pick, uint64(7), true, "jxta.rdv", "net", "mem://rdv", "", "")
			f.Add(frame, pick, uint64(1), false, "jxta.rdv", "", "tcp://127.0.0.1:9701", "rdv", "Seq")
		}
	}
	var wide [][4]string // more elements than a view indexes
	for i := range 20 {
		wide = append(wide, [4]string{"app", string(rune('a' + i)), "", "x"})
	}
	wide = append(wide, [4]string{"rdv", "Seq", "", "12345678"}, [4]string{"ep", "SrcAddr", "", "mem://pub"})
	f.Add(rawFrame(3, 1, wide...), uint8(2), uint64(9), true, "jxta.rdv", "net", "mem://rdv", "", "")
	f.Add(rawFrame(0, 1, [4]string{"app", "a", "", "x"}), uint8(0), uint64(1), false, "s", "p", "a", "", "")
	f.Add(rawFrame(3, MaxPathLen, [4]string{"app", "a", "", "x"}), uint8(0), uint64(1), true, "s", "p", "a", "", "")
	f.Add(rawFrame(3, 0, [4]string{"app", strings.Repeat("n", 256), "", "x"}), uint8(0), uint64(1), false, "s", "p", "a", "", "")
	f.Add(rawFrame(3, 0, [4]string{"rdv", "Seq", strings.Repeat("m", 300), "x"}), uint8(0), uint64(1), true, "s", "p", "a", "", "")
	f.Add(rawFrame(3, 0, [4]string{"ep", "SrcAddr", strings.Repeat("m", 300), "x"}), uint8(0), uint64(1), false, "s", "p", "a", "", "")
	f.Fuzz(func(t *testing.T, frame []byte, pick uint8, seq uint64, logged bool, svc, param, srcAddr, ns, name string) {
		v, verr := NewView(frame)
		ref, rerr := referenceDecode(frame)
		_, merr := Unmarshal(frame)
		for _, err := range []error{rerr, merr} {
			if (verr == nil) != (err == nil) || (verr != nil && verr.Error() != err.Error()) {
				t.Fatalf("NewView: %v; the reference decoder and Unmarshal: %v, %v", verr, rerr, merr)
			}
		}
		if verr != nil {
			return
		}
		if !sameMessage(v.Message(), ref) {
			t.Fatalf("the view decodes to\n %+v\nthe reference decoder to\n %+v", v.Message(), ref)
		}
		self := jid.FromSeed(jid.KindPeer, 99)
		switch path := v.AppendPath(nil); {
		case pick%3 == 1:
			self = v.Src()
		case pick%3 == 2 && len(path) > 0:
			self = path[0]
		}
		envelope := []Field{{"ep", "DstSvc", svc}, {"ep", "DstParam", param}, {"ep", "SrcAddr", srcAddr}}
		if ns != "" || name != "" {
			for _, f := range envelope {
				if f.Namespace == ns && f.Name == name {
					return // fields differ from each other in name
				}
			}
			envelope = append(envelope, Field{ns, name, svc})
		}
		var stamps []Element
		if logged {
			stamps = logStamps(self, seq)
		}
		want, wantErr := reencoded(bytes.Clone(frame), self, logged, seq, envelope)
		before := bytes.Clone(frame)
		got, gotErr := Forward(nil, &v, self, stamps, envelope...)
		if !bytes.Equal(frame, before) {
			t.Fatal("Forward wrote the frame it forwards")
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("Forward: %v; decode + re-encode: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrTooLarge) && !errors.Is(gotErr, ErrNoForward) {
				t.Fatalf("refusal reported as %v", gotErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Forward wrote\n %x\ndecode + re-encode wrote\n %x", got, want)
		}
	})
}

// TestForwardRefuses: Forward refuses what Stamp and the enveloped
// marshal refuse — a spent TTL, self on the path, a path already at the
// limit, an element header over 255 bytes — and forwards a frame whose
// over-long header is one a stamp replaces or an envelope field names.
func TestForwardRefuses(t *testing.T) {
	self := jid.FromSeed(jid.KindPeer, 99)
	envelope := []Field{{"ep", "DstSvc", "jxta.rdv"}, {"ep", "SrcAddr", "mem://rdv"}}
	long := strings.Repeat("m", 256)
	for _, c := range []struct {
		name   string
		frame  []byte
		self   jid.ID
		stamps []Element
		want   error
	}{
		{"TTL spent", rawFrame(0, 1, [4]string{"app", "a", "", "x"}), self, nil, ErrNoForward},
		{"self on the path", rawFrame(3, 2), jid.FromSeed(jid.KindPeer, 101), nil, ErrNoForward},
		{"path at the limit", rawFrame(3, MaxPathLen), self, nil, ErrTooLarge},
		{"long name", rawFrame(3, 0, [4]string{"app", long, "", "x"}), self, nil, ErrTooLarge},
		{"names past 64 kB together", rawFrame(3, 0, [4]string{strings.Repeat("n", 40000), strings.Repeat("m", 30000), "", "x"}), self, nil, ErrTooLarge},
		{"long MIME type", rawFrame(3, 0, [4]string{"app", "a", long, "x"}), self, nil, ErrTooLarge},
		{"long MIME type enveloped", rawFrame(3, 0, [4]string{"ep", "SrcAddr", long, "x"}), self, nil, ErrTooLarge},
		{"long MIME type stamped", rawFrame(3, 0, [4]string{"rdv", "Seq", long, "x"}), self, logStamps(self, 1), nil},
		{"forwarded", rawFrame(3, MaxPathLen-1, [4]string{"app", "a", "", "x"}), self, logStamps(self, 1), nil},
	} {
		v, err := NewView(c.frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := Forward(nil, &v, c.self, c.stamps, envelope...)
		want, wantErr := reencoded(c.frame, c.self, c.stamps != nil, 1, envelope)
		if !errors.Is(err, c.want) || (c.want == nil) != (wantErr == nil) {
			t.Fatalf("%s: Forward %v, decode + re-encode %v; want %v", c.name, err, wantErr, c.want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Forward wrote\n %x\nwant\n %x", c.name, got, want)
		}
	}
}

// TestViewReadsAsTheMessage: a view answers as the message decoded from
// its frame — header, path, every element by name, the first of two of
// one name, a missing one — and View.Message is Unmarshal's message.
func TestViewReadsAsTheMessage(t *testing.T) {
	m := testMsg()
	m.Stamp(jid.FromSeed(jid.KindPeer, 2))
	m.AddUint64("rdv", "Seq", 42)
	m.AddID("rdv", "LogSrc", jid.FromSeed(jid.KindPeer, 3))
	m.AddString("app", "payload", "second of its name")
	frame, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(frame)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Unmarshal(frame)
	if v.ID() != d.ID || v.Src() != d.Src || v.TTL() != d.TTL || !slices.Equal(v.AppendPath(nil), d.Path) {
		t.Fatalf("header: view %v %v %d, message %+v", v.ID(), v.Src(), v.TTL(), d)
	}
	if !v.Visited(jid.FromSeed(jid.KindPeer, 2)) || v.Visited(jid.FromSeed(jid.KindPeer, 3)) {
		t.Fatal("Visited disagrees with the path")
	}
	for _, e := range append(d.Elements(), Element{Namespace: "app", Name: "absent"}) {
		ve, vok := v.Element(e.Namespace, e.Name)
		de, dok := d.Element(e.Namespace, e.Name)
		if vok != dok || ve.Key() != de.Key() || ve.MimeType != de.MimeType || !bytes.Equal(ve.Data, de.Data) || v.Text(e.Namespace, e.Name) != d.Text(e.Namespace, e.Name) {
			t.Fatalf("%s: view %+v %v, message %+v %v", e.Key(), ve, vok, de, dok)
		}
	}
	if seq, ok := v.Uint64("rdv", "Seq"); !ok || seq != 42 {
		t.Fatalf("Uint64 = %d, %v", seq, ok)
	}
	if id, err := v.GetID("rdv", "LogSrc"); err != nil || id != jid.FromSeed(jid.KindPeer, 3) {
		t.Fatalf("GetID = %v, %v", id, err)
	}
	again, err := v.Message().Marshal()
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("the view's message marshals to another frame (%v)", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w, _ := NewView(frame)
		_ = w.Text("app", "payload")
	}); allocs != 0 {
		t.Fatalf("NewView and a lookup allocate %.1f/op, want 0", allocs)
	}
}
