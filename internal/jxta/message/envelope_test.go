package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// goldenDurableFrame is a propagated event as a durable rendezvous at
// commit 7474381 (PR 21) stored it in its event log — the encoder that
// enveloped by Dup + ReplaceElement, so the ep elements the publisher's
// hop had written sit replaced in the middle, not at the end. Segments
// written by that encoder are what a restarted rendezvous replays.
const goldenDurableFrame = "testdata/durable_frame_pr21.bin"

// replaceEnveloped is how a frame was enveloped before fields could be
// written into it: a private copy of the message, one ReplaceElement
// per field. The reference the enveloped marshal is held to.
func replaceEnveloped(m *Message, fields []Field) ([]byte, error) {
	ref := m.Dup()
	for _, f := range fields {
		ref.ReplaceElement(Element{Namespace: f.Namespace, Name: f.Name, Data: []byte(f.Value)})
	}
	return ref.MarshalAppend(nil)
}

type content struct {
	mime string
	data string
}

// contents maps each element name of a frame to what it carries.
func contents(t *testing.T, frame []byte) (*Message, map[[2]string]content) {
	t.Helper()
	m, err := Unmarshal(frame)
	if err != nil {
		t.Fatalf("frame does not decode: %v", err)
	}
	if m.WireSize() != len(frame) {
		t.Fatalf("WireSize %d, frame is %d bytes", m.WireSize(), len(frame))
	}
	out := make(map[[2]string]content, m.Len())
	for _, e := range m.elements {
		out[[2]string{e.Namespace, e.Name}] = content{e.MimeType, string(e.Data)}
	}
	return m, out
}

// FuzzEnvelopeMatchesReplace holds MarshalAppend with envelope fields to
// the encoding it replaced. The message is whatever decodes — the seeds
// include forwarded frames, which already carry ep, rdv and wire
// elements — and the envelope is the last one to eight of what a
// propagated event is sent with (the rendezvous' three fields, the
// wire's one, the endpoint's three) and a field that is aimed at one of
// the message's elements or named by the fuzzer.
func FuzzEnvelopeMatchesReplace(f *testing.F) {
	plain, err := testMsg().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	forwarded, err := os.ReadFile(goldenDurableFrame)
	if err != nil {
		f.Fatal(err)
	}
	published, stored := goldenEventFrames(f)
	f.Add(plain, "jxta.rdv", "net", "mem://rdv", "rdv", "Seq", uint8(255), uint8(2))
	f.Add(forwarded, "jxta.rdv", "", "tcp://127.0.0.1:9701", "", "", uint8(4), uint8(2))
	f.Add(forwarded, "", "net", "", strings.Repeat("n", 256), "name", uint8(255), uint8(0))
	f.Add(published, "jxta.service.wire", "net", "mem://pub", "tps", "Codec", uint8(255), uint8(7))
	f.Add(stored, "jxta.service.wire", "net", "\x03pipe", "", "", uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, frame []byte, svc, param, value, ns, name string, aim, more uint8) {
		m, err := Unmarshal(frame)
		if err != nil {
			return
		}
		fields := []Field{
			{"rdv", "Op", "prop"}, {"rdv", "DSvc", svc}, {"rdv", "DParam", param}, {"wire", "ID", value},
			{"ep", "DstSvc", svc}, {"ep", "DstParam", param}, {"ep", "SrcAddr", value}, {ns, name, value},
		}
		fields = fields[7-int(more%8):]
		own := &fields[len(fields)-1]
		if int(aim) < m.Len() {
			own.Namespace, own.Name = m.elements[aim].Namespace, m.elements[aim].Name
		}
		for _, f := range fields[:len(fields)-1] {
			if f.Namespace == own.Namespace && f.Name == own.Name {
				return // fields differ from each other in name
			}
		}
		for _, f := range fields {
			n := 0
			for _, e := range m.elements {
				if e.Namespace == f.Namespace && e.Name == f.Name {
					n++
				}
			}
			if n > 1 {
				return // ReplaceElement speaks of the first of them only
			}
		}

		before := m.Elements()
		got, gotErr := m.MarshalAppend(nil, fields...)
		if m.cow || !reflect.DeepEqual(m.Elements(), before) {
			t.Fatal("the enveloped marshal touched the message")
		}
		want, wantErr := replaceEnveloped(m, fields)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("enveloped marshal: %v; Dup + ReplaceElement: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrTooLarge) {
				t.Fatalf("limit violation reported as %v", gotErr)
			}
			return
		}
		gm, gc := contents(t, got)
		wm, wc := contents(t, want)
		if gm.ID != wm.ID || gm.Src != wm.Src || gm.TTL != wm.TTL || !reflect.DeepEqual(gm.Path, wm.Path) {
			t.Fatalf("headers differ:\n got %+v\nwant %+v", gm, wm)
		}
		if gm.Len() != wm.Len() || len(got) != len(want) || !reflect.DeepEqual(gc, wc) {
			t.Fatalf("elements differ:\n got %d %q\nwant %d %q", gm.Len(), gc, wm.Len(), wc)
		}
		for _, f := range fields {
			if c := gc[[2]string{f.Namespace, f.Name}]; c != (content{"", f.Value}) {
				t.Fatalf("field %s:%s reads %q", f.Namespace, f.Name, c)
			}
		}
	})
}

// TestEnvelopeLimits: a field that would be the 1025th element, or whose
// name does not fit the wire's length byte budget, is an error, as it was
// when the field was an element of a copy.
func TestEnvelopeLimits(t *testing.T) {
	full := New(jid.FromSeed(jid.KindPeer, 1))
	for i := 0; i < MaxElements; i++ {
		full.AddBytes("app", strings.Repeat("x", 1+i%200)+string(rune('a'+i/200)), nil)
	}
	if _, err := full.MarshalAppend(nil); err != nil {
		t.Fatalf("a message of MaxElements elements must marshal: %v", err)
	}
	replaced := Field{"app", full.elements[0].Name, "v"}
	if _, err := full.MarshalAppend(nil, replaced); err != nil {
		t.Fatalf("a field replacing an element adds none: %v", err)
	}
	for _, fields := range [][]Field{
		{{"ep", "DstSvc", "v"}},
		{replaced, {"ep", "DstSvc", "v"}},
	} {
		_, err := full.MarshalAppend(nil, fields...)
		_, refErr := replaceEnveloped(full, fields)
		if !errors.Is(err, ErrTooLarge) || !errors.Is(refErr, ErrTooLarge) {
			t.Fatalf("one element too many: enveloped %v, reference %v", err, refErr)
		}
	}
	long := Field{"ep", strings.Repeat("n", 256), "v"}
	if _, err := testMsg().MarshalAppend(nil, long); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("256-byte field name: %v", err)
	}
}

// TestEnvelopedFrameLayout pins the bytes the new encoder writes to the
// layout at the top of codec.go: the message's elements in order, less
// the ones a field replaces, then the fields.
func TestEnvelopedFrameLayout(t *testing.T) {
	src := jid.FromSeed(jid.KindPeer, 3)
	hop := jid.FromSeed(jid.KindPeer, 4)
	m := &Message{ID: jid.FromSeed(jid.KindMessage, 5), Src: src, TTL: 6, Path: []jid.ID{hop}}
	m.AddBytes("ep", "DstSvc", []byte("previous hop's"))
	m.AddElement(Element{Namespace: "app", Name: "data", MimeType: "a/b", Data: []byte{0xCA, 0xFE}})

	var want []byte
	want = append(want, 'J', 'X', 'M', '1', 1)
	want = m.ID.AppendWire(want)
	want = src.AppendWire(want)
	want = append(want, 6, 1) // ttl, path length
	want = hop.AppendWire(want)
	want = append(want, 0, 3) // element count
	want = append(want, 0, 3, 'a', 'p', 'p', 0, 4, 'd', 'a', 't', 'a', 0, 3, 'a', '/', 'b', 0, 0, 0, 2, 0xCA, 0xFE)
	want = append(want, 0, 2, 'e', 'p', 0, 6, 'D', 's', 't', 'S', 'v', 'c', 0, 0, 0, 0, 0, 3, 's', 'v', 'c')
	want = append(want, 0, 2, 'e', 'p', 0, 8, 'D', 's', 't', 'P', 'a', 'r', 'a', 'm', 0, 0, 0, 0, 0, 0)

	got, err := m.MarshalAppend(nil, Field{"ep", "DstSvc", "svc"}, Field{"ep", "DstParam", ""})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("enveloped frame left the documented layout:\n got %x\nwant %x", got, want)
	}
	buf := make([]byte, 0, len(want))
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = m.MarshalAppend(buf, Field{"ep", "DstSvc", "svc"}, Field{"ep", "DstParam", ""})
	})
	if allocs != 0 {
		t.Fatalf("enveloped marshal into a sized buffer allocates %.1f/op", allocs)
	}
}

// goldenEventFrames returns the two frames of testdata/event_frame_pr22.bin,
// each behind a 32-bit length: the frame a publisher at commit 11e23a6
// (PR 22) sent its rendezvous for one event — built as the engine builds
// it, sent on a wire pipe — and the frame that rendezvous, a durable one,
// stored and fanned out for it. That encoder wrote wire:ID and the rdv
// fields as elements of a copy of the message.
func goldenEventFrames(t testing.TB) (published, stored []byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/event_frame_pr22.bin")
	if err != nil {
		t.Fatal(err)
	}
	var frames [2][]byte
	for i := range frames {
		if len(raw) < 4 || len(raw)-4 < int(binary.BigEndian.Uint32(raw)) {
			t.Fatalf("golden file: frame %d is cut short", i)
		}
		n := int(binary.BigEndian.Uint32(raw))
		frames[i], raw = raw[4:4+n], raw[4+n:]
	}
	return frames[0], frames[1]
}

// TestParentEncodedFrameDecodes reads frames the previous encoders
// wrote: the wire format did not move, so what they left in an event log
// — or send, from a peer not upgraded yet — still decodes, field for
// field. And for the same message, this encoder's frame says the same:
// the (namespace, name, value) set is the parent's, with only the order
// and the MIME type of wire:ID, which nothing reads, different.
func TestParentEncodedFrameDecodes(t *testing.T) {
	frame, err := os.ReadFile(goldenDurableFrame)
	if err != nil {
		t.Fatal(err)
	}
	m, c := contents(t, frame)
	pub, rdv := jid.FromSeed(jid.KindPeer, 2), jid.FromSeed(jid.KindPeer, 1)
	if m.ID != jid.FromSeed(jid.KindMessage, 7) || m.Src != pub || m.TTL != DefaultTTL-2 || !reflect.DeepEqual(m.Path, []jid.ID{pub, rdv}) {
		t.Fatalf("header: %+v", m)
	}
	for name, want := range map[[2]string]string{
		{"tps", "Path"}:    "/ski/rental",
		{"tps", "Data"}:    "payload written by the encoder of commit 7474381",
		{"rdv", "Op"}:      "prop",
		{"rdv", "DSvc"}:    "app.events",
		{"rdv", "DParam"}:  "net",
		{"ep", "DstSvc"}:   "jxta.rdv",
		{"ep", "DstParam"}: "net",
		{"ep", "SrcAddr"}:  "mem://rdv",
		{"rdv", "Seq"}:     "\x00\x00\x00\x00\x00\x00\x00\x01",
		{"tps", "EventID"}: string(jid.FromSeed(jid.KindPipe, 42).AppendWire(nil)),
		{"rdv", "LogSrc"}:  string(rdv.AppendWire(nil)),
	} {
		if c[name].data != want {
			t.Errorf("%s:%s = %q, want %q", name[0], name[1], c[name].data, want)
		}
	}
	if m.Len() != 11 {
		t.Errorf("%d elements, want 11", m.Len())
	}
	again, err := m.Marshal()
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-marshal of the decoded frame differs (%v)", err)
	}

	// PR 22: the publisher's frame and the stored frame of one event.
	published, stored := goldenEventFrames(t)
	pipe := string(jid.FromSeed(jid.KindPipe, 42).AppendWire(nil))
	event := map[[2]string]string{
		{"tps", "EventID"}: string(jid.FromSeed(jid.KindMessage, 43).AppendWire(nil)),
		{"tps", "Path"}:    "/ski/rental",
		{"tps", "Codec"}:   "gob",
		{"tps", "Data"}:    "payload written by the encoder of commit 11e23a6",
		{"wire", "ID"}:     pipe,
		{"rdv", "Op"}:      "prop",
		{"rdv", "DSvc"}:    "jxta.service.wire",
		{"rdv", "DParam"}:  "net",
		{"ep", "DstSvc"}:   "jxta.rdv",
		{"ep", "DstParam"}: "net",
	}
	for _, g := range []struct {
		frame []byte
		path  []jid.ID
		more  map[[2]string]string
	}{
		{published, []jid.ID{pub}, map[[2]string]string{{"ep", "SrcAddr"}: "mem://pub"}},
		{stored, []jid.ID{pub, rdv}, map[[2]string]string{
			{"ep", "SrcAddr"}: "mem://rdv",
			{"rdv", "Seq"}:    "\x00\x00\x00\x00\x00\x00\x00\x01",
			{"rdv", "LogSrc"}: string(rdv.AppendWire(nil)),
		}},
	} {
		m, c := contents(t, g.frame)
		if m.ID != jid.FromSeed(jid.KindMessage, 8) || m.Src != pub || int(m.TTL) != DefaultTTL-len(g.path) || !reflect.DeepEqual(m.Path, g.path) {
			t.Fatalf("header: %+v", m)
		}
		if m.Len() != len(event)+len(g.more) {
			t.Errorf("%d elements, want %d", m.Len(), len(event)+len(g.more))
		}
		for _, want := range []map[[2]string]string{event, g.more} {
			for name, v := range want {
				if c[name].data != v {
					t.Errorf("%s:%s = %q, want %q", name[0], name[1], c[name].data, v)
				}
			}
		}
		if again, err := m.Marshal(); err != nil || !bytes.Equal(again, g.frame) {
			t.Fatalf("re-marshal of the decoded frame differs (%v)", err)
		}
	}

	// The same event, sent by this encoder: the message is the engine's
	// four elements, stamped, and everything else is envelope.
	ev := &Message{ID: jid.FromSeed(jid.KindMessage, 8), Src: pub, TTL: DefaultTTL}
	ev.AddID("tps", "EventID", jid.FromSeed(jid.KindMessage, 43))
	ev.AddString("tps", "Path", "/ski/rental")
	ev.AddString("tps", "Codec", "gob")
	ev.AddBytes("tps", "Data", []byte("payload written by the encoder of commit 11e23a6"))
	out := ev.Dup()
	out.Stamp(pub)
	now, err := out.MarshalAppend(nil,
		Field{"rdv", "Op", "prop"}, Field{"rdv", "DSvc", "jxta.service.wire"}, Field{"rdv", "DParam", "net"},
		Field{"wire", "ID", pipe},
		Field{"ep", "DstSvc", "jxta.rdv"}, Field{"ep", "DstParam", "net"}, Field{"ep", "SrcAddr", "mem://pub"})
	if err != nil {
		t.Fatal(err)
	}
	nm, nc := contents(t, now)
	pm, pc := contents(t, published)
	if nm.ID != pm.ID || nm.Src != pm.Src || nm.TTL != pm.TTL || !reflect.DeepEqual(nm.Path, pm.Path) {
		t.Fatalf("headers differ:\n now  %+v\nthen %+v", nm, pm)
	}
	if ev.Len() != 4 || len(ev.Path) != 0 {
		t.Fatalf("the event was written to: %v, path %v", ev.Elements(), ev.Path)
	}
	if len(now) != len(published)-len("application/x-jxta-id") {
		t.Errorf("frame is %d bytes, the parent's %d: only wire:ID's MIME type should be gone", len(now), len(published))
	}
	for name, then := range pc {
		if name == [2]string{"wire", "ID"} {
			then.mime = ""
		}
		if nc[name] != then {
			t.Errorf("%s:%s = %q, the parent's encoder wrote %q", name[0], name[1], nc[name], then)
		}
	}
	if len(nc) != len(pc) {
		t.Errorf("%d elements, the parent's encoder wrote %d", len(nc), len(pc))
	}
}
