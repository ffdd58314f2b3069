package engine_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs/trace"
	"github.com/tps-p2p/tps/internal/srapp"
)

// The ID a publish mints — its message's, which is its event's — and
// the clock its trace stamp reads are rewritten to these before a frame
// is compared, so a frame is the same bytes on every run.
var (
	goldenMessageID = jid.FromSeed(jid.KindMessage, 1)
	goldenSentUS    = uint64(1_700_000_000_000_000)
)

// publishedFrame publishes one 64 B-pad ski rental offer from a peer
// with a fixed ID and address, traced or not, and returns the event
// frame it sent its rendezvous, its minted ID and trace clock rewritten
// to the golden ones.
func publishedFrame(t *testing.T, traced bool) []byte {
	published, _ := hopFrames(t, traced, false)
	return published
}

// hopFrames publishes one 64 B-pad ski rental offer from pub through
// rdv to sub, peers with fixed IDs and addresses, traced or not, through
// a durable rendezvous or not, and returns the event frame pub sent rdv
// and the one rdv forwarded to sub, their minted ID and trace clock
// rewritten to the golden ones. rdv reads no group: it forwards alone.
func hopFrames(t *testing.T, traced, durable bool) (published, forwarded []byte) {
	t.Helper()
	n := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(n.Close)
	start := func(name string, id uint64, cfg rendezvous.Config) (*peer.Peer, *frameTap) {
		node, err := n.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		tap := &frameTap{Transport: memnet.New(node)}
		p, err := peer.New(peer.Config{Name: name, ID: jid.FromSeed(jid.KindPeer, id), Rendezvous: cfg}, tap)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p, tap
	}
	rdvCfg := rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 2 * time.Second}
	if durable {
		log, err := eventlog.Open(eventlog.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = log.Close() })
		rdvCfg.Log = log
	}
	_, rdvTap := start("rdv", 1, rdvCfg)
	edge := rendezvous.Config{Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 2 * time.Second}
	pub, pubTap := start("pub", 2, edge)
	sub, _ := start("sub", 3, edge)
	reg := typereg.New()
	node, err := reg.Register(reflect.TypeOf(srapp.SkiRental{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	rate := 0.0
	if traced {
		rate = 1
	}
	attach := func(p *peer.Peer) *engine.Engine {
		eng, err := engine.New(engine.Config{Peer: p, Registry: reg, FindInterval: rigFindInterval, TraceRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		if err := eng.EnsureType(node); err != nil {
			t.Fatal(err)
		}
		if !eng.AwaitReady(node, 1, 5*time.Second) {
			t.Fatal("not ready")
		}
		return eng
	}
	delivered := make(chan struct{}, 1)
	if _, err := attach(sub).Subscribe(node, func(any, jid.ID) error { delivered <- struct{}{}; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := attach(pub).Publish(goldenOffer()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("the event never reached the subscriber")
	}
	n.WaitQuiesce(5 * time.Second)
	published = eventFrame(t, pubTap, traced, false)
	forwarded = eventFrame(t, rdvTap, traced, durable)
	return published, forwarded
}

// eventFrame returns the event frame tap sent, its minted ID and trace
// clock rewritten to the golden ones. A second event frame fails the
// test, unless replays are allowed — a durable rendezvous may serve the
// frame it forwarded again from its log — and it is the same bytes.
func eventFrame(t *testing.T, tap *frameTap, traced, allowReplay bool) []byte {
	t.Helper()
	tap.mu.Lock()
	defer tap.mu.Unlock()
	var frame []byte
	for _, f := range tap.frames {
		m, err := message.Unmarshal(bytes.Clone(f))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Element("tps", "Data"); !ok {
			continue
		}
		got := bytes.ReplaceAll(bytes.Clone(f), m.ID.AppendWire(nil), goldenMessageID.AppendWire(nil))
		if _, sentUS, ok := trace.Info(m); ok {
			got = bytes.ReplaceAll(got, binary.BigEndian.AppendUint64(nil, uint64(sentUS)), binary.BigEndian.AppendUint64(nil, goldenSentUS))
		} else if traced {
			t.Fatal("a publish at TraceRate 1 carries no trace element")
		}
		if frame != nil && !allowReplay {
			t.Fatal("the peer sent its event twice")
		}
		if frame != nil && !bytes.Equal(frame, got) {
			t.Fatal("a durable rendezvous replayed an event frame other than the one it forwarded")
		}
		frame = got
	}
	if frame == nil {
		t.Fatal("no event frame left the peer")
	}
	return frame
}

func goldenOffer() srapp.SkiRental {
	return srapp.Pad(srapp.SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}, 64)
}

// withBlob returns frame with its tps:Data payload replaced by blob,
// re-marshalled: a decoded frame marshals back to itself, so only the
// payload moves.
func withBlob(t *testing.T, frame, blob []byte) []byte {
	t.Helper()
	m, err := message.Unmarshal(bytes.Clone(frame))
	if err != nil {
		t.Fatal(err)
	}
	m.ReplaceElement(message.Element{Namespace: "tps", Name: "Data", Data: blob})
	out, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublishedFrameGolden holds the frame Engine.Publish sends its
// rendezvous for one event, untraced and traced, to the bytes the
// publisher of commit 42b25fe sent less their tps:EventID element — an
// event's ID is its message's now — (testdata/published_frame_*.bin),
// byte for byte once the minted ID and the trace clock are fixed. gob
// numbers types per process in order of first use, so the blob a
// process writes depends on what it encoded before; the golden frame is
// compared with its blob replaced by what a fresh gob.Encoder writes for
// the offer in this process, and its own blob must decode to the offer.
func TestPublishedFrameGolden(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := map[bool]string{false: "untraced", true: "traced"}[traced]
		t.Run(name, func(t *testing.T) {
			got := publishedFrame(t, traced)
			path := fmt.Sprintf("testdata/published_frame_%s.bin", name)
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := message.Unmarshal(bytes.Clone(golden))
			if err != nil {
				t.Fatal(err)
			}
			var offer srapp.SkiRental
			if err := gob.NewDecoder(bytes.NewReader(m.Bytes("tps", "Data"))).Decode(&offer); err != nil || offer != goldenOffer() {
				t.Fatalf("the golden blob decodes to %+v (%v)", offer, err)
			}
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(goldenOffer()); err != nil {
				t.Fatal(err)
			}
			if want := withBlob(t, golden, fresh.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("the published frame differs from %s:\n got %x\nwant %x", path, got, want)
			}
		})
	}
}

// TestForwardedFrameGolden holds the frame a rendezvous that reads no
// group forwards for one published event — written from the bytes it
// received (message.Forward), not decoded and encoded again — to the
// frame the rendezvous of commit eb2651a, which decoded and re-encoded
// it, sent for the same event (testdata/forwarded_frame_*.bin): plain,
// and from a durable rendezvous, which stamps the log sequence and its
// own ID on the frame it logs and forwards. The blob is compared as
// TestPublishedFrameGolden compares it.
func TestForwardedFrameGolden(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "untraced", true: "durable"}[durable]
		t.Run(name, func(t *testing.T) {
			_, got := hopFrames(t, false, durable)
			path := fmt.Sprintf("testdata/forwarded_frame_%s.bin", name)
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(goldenOffer()); err != nil {
				t.Fatal(err)
			}
			if want := withBlob(t, golden, fresh.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("the forwarded frame differs from %s:\n got %x\nwant %x", path, got, want)
			}
		})
	}
}
