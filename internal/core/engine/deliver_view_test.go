package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// paddedOffer is an event with strings and a byte slice, each of which a
// decode could leave pointing into the frame it was read from.
type paddedOffer struct {
	Shop, Brand string
	Pad         []byte
	Price       float64
}

// scribbler hands the endpoint every frame it receives, then overwrites
// each event frame's bytes: the engine is lent the frame for the call
// alone, and whatever it kept of it reads the scribble afterwards.
type scribbler struct {
	endpoint.Transport
	mu        sync.Mutex
	scribbled int
}

func (s *scribbler) SetReceiver(receive func(frame []byte)) {
	s.Transport.SetReceiver(func(frame []byte) {
		v, err := message.NewView(frame)
		event := err == nil && v.Bytes("tps", "Data") != nil
		receive(frame)
		if event {
			for i := range frame {
				frame[i] = 0xa5
			}
			s.mu.Lock()
			s.scribbled++
			s.mu.Unlock()
		}
	})
}

// TestDeliveredEventKeepsNothingOfTheFrame: the engine decodes an event
// from the view of its frame (Deliver), and keeps nothing of the view.
// Traced events cross publisher → rendezvous → subscriber, and each of
// the subscriber's frames is overwritten as soon as the engine returns
// from it: the value the callback was handed — its strings, its byte
// slice — and the publisher it names are unchanged, and so is the
// deliver hop the subscriber's trace store recorded, with its path.
func TestDeliveredEventKeepsNothingOfTheFrame(t *testing.T) {
	n := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
	t.Cleanup(n.Close)
	start := func(name string, id uint64, cfg rendezvous.Config, wrap func(endpoint.Transport) endpoint.Transport) *peer.Peer {
		node, err := n.AddNode(name)
		if err != nil {
			t.Fatal(err)
		}
		var tr endpoint.Transport = memnet.New(node)
		if wrap != nil {
			tr = wrap(tr)
		}
		p, err := peer.New(peer.Config{Name: name, ID: jid.FromSeed(jid.KindPeer, id), Rendezvous: cfg}, tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	rdv := start("rdv", 1, rendezvous.Config{Role: rendezvous.RoleRendezvous, LeaseTTL: 2 * time.Second}, nil)
	edge := rendezvous.Config{Seeds: []endpoint.Address{"mem://rdv"}, LeaseTTL: 2 * time.Second}
	pub := start("pub", 2, edge, nil)
	scrib := &scribbler{}
	sub := start("sub", 3, edge, func(tr endpoint.Transport) endpoint.Transport {
		scrib.Transport = tr
		return scrib
	})
	reg := typereg.New()
	node, err := reg.Register(reflect.TypeOf(paddedOffer{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewStore(16)
	attach := func(p *peer.Peer, cfg engine.Config) *engine.Engine {
		cfg.Peer, cfg.Registry, cfg.FindInterval = p, reg, rigFindInterval
		eng, err := engine.New(cfg)
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
	// The first event of a type is decoded by a fresh gob decoder, the
	// rest by the type's decode plan.
	const events = 3
	type delivery struct {
		value paddedOffer
		src   jid.ID
	}
	delivered := make(chan delivery, events)
	subEng := attach(sub, engine.Config{Tracer: tracer})
	if _, err := subEng.Subscribe(node, func(v any, src jid.ID) error {
		delivered <- delivery{v.(paddedOffer), src}
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	pubEng := attach(pub, engine.Config{TraceRate: 1})
	// An event's price is its number, which no scribble reaches.
	want := func(i int) paddedOffer {
		return paddedOffer{Shop: "XTremShop", Brand: fmt.Sprint("Salomon ", i), Pad: bytes.Repeat([]byte{byte('a' + i)}, 300), Price: float64(i)}
	}
	for i := range events {
		if err := pubEng.Publish(want(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []delivery
	for range events {
		select {
		case d := <-delivered:
			got = append(got, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d events reached the subscriber", len(got), events)
		}
	}
	n.WaitQuiesce(5 * time.Second)
	scrib.mu.Lock()
	scribbled := scrib.scribbled
	scrib.mu.Unlock()
	if scribbled != events {
		t.Fatalf("the subscriber received %d event frames, want %d", scribbled, events)
	}
	for _, d := range got {
		i := int(d.value.Price)
		if !reflect.DeepEqual(d.value, want(i)) {
			t.Errorf("delivered value %d changed with its frame: %+v, want %+v", i, d.value, want(i))
		}
		if d.src != pub.ID() {
			t.Errorf("delivered event %d names publisher %v, want %v", i, d.src, pub.ID())
		}
	}
	summaries := tracer.Events()
	if len(summaries) != events {
		t.Fatalf("the subscriber traced %d events, want %d", len(summaries), events)
	}
	wantPath := []string{pub.ID().String(), rdv.ID().String()}
	for _, ev := range summaries {
		var hops []trace.Hop
		for _, h := range tracer.Hops(ev.EventID) {
			if h.Stage == trace.StageDeliver {
				hops = append(hops, h)
			}
		}
		if len(hops) != 1 || hops[0].Peer != sub.ID().String() || !slices.Equal(hops[0].Path, wantPath) {
			t.Errorf("the subscriber's deliver hops of %s read %+v, want one at %v with path %v", ev.EventID, hops, sub.ID(), wantPath)
		}
	}
}
