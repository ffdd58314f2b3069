package adv

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

func samplePeerAdv() *PeerAdv {
	return &PeerAdv{
		PeerID:     jid.FromSeed(jid.KindPeer, 1),
		GroupID:    jid.NetGroup,
		Name:       "peer-one",
		Desc:       "a test peer",
		Addresses:  []string{"tcp://10.0.0.1:9701", "mem://n1"},
		Rendezvous: true,
	}
}

func samplePipeAdv() *PipeAdv {
	return &PipeAdv{
		PipeID: jid.FromSeed(jid.KindPipe, 2),
		Type:   PipePropagate,
		Name:   "PS.SkiRental",
	}
}

func sampleGroupAdv() *PeerGroupAdv {
	return &PeerGroupAdv{
		GroupID:    jid.FromSeed(jid.KindGroup, 3),
		PeerID:     jid.FromSeed(jid.KindPeer, 1),
		Name:       "PS.SkiRental",
		Desc:       "ski rental event group",
		GroupImpl:  "stdgroup",
		App:        "tps",
		Rendezvous: true,
		Services: []ServiceAdv{{
			Name:     "jxta.service.wire",
			Version:  "1.0",
			Keywords: "PS.SkiRental",
			Pipe:     samplePipeAdv(),
		}},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	advs := []Advertisement{
		samplePeerAdv(),
		samplePipeAdv(),
		sampleGroupAdv(),
		&ServiceAdv{Name: "jxta.service.resolver", Params: []string{"p1", "p2"}},
	}
	for _, a := range advs {
		t.Run(a.AdvType(), func(t *testing.T) {
			doc, err := Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(doc)
			if err != nil {
				t.Fatalf("Unmarshal: %v\ndoc:\n%s", err, doc)
			}
			if got.AdvType() != a.AdvType() {
				t.Fatalf("type = %q, want %q", got.AdvType(), a.AdvType())
			}
			if got.AdvID() != a.AdvID() {
				t.Fatalf("id = %v, want %v", got.AdvID(), a.AdvID())
			}
			if got.AdvName() != a.AdvName() {
				t.Fatalf("name = %q, want %q", got.AdvName(), a.AdvName())
			}
			if got.Kind() != a.Kind() {
				t.Fatalf("kind = %v, want %v", got.Kind(), a.Kind())
			}
		})
	}
}

func TestRoundTripPreservesFields(t *testing.T) {
	orig := sampleGroupAdv()
	doc, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := got.(*PeerGroupAdv)
	if !ok {
		t.Fatalf("got %T", got)
	}
	g.XMLName = orig.XMLName // XMLName is set by the decoder; ignore
	if len(g.Services) == 1 {
		g.Services[0].XMLName = orig.Services[0].XMLName
		if g.Services[0].Pipe != nil {
			g.Services[0].Pipe.XMLName = orig.Services[0].Pipe.XMLName
		}
	}
	if !reflect.DeepEqual(g, orig) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, orig)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("<UnknownAdvertisement/>")); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: %v", err)
	}
	if _, err := Unmarshal([]byte("not xml at all")); !errors.Is(err, ErrNotXML) {
		t.Fatalf("garbage: %v", err)
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil doc parsed")
	}
	// Root is known but the body is broken XML.
	if _, err := Unmarshal([]byte("<PipeAdvertisement><Id>oops")); err == nil {
		t.Fatal("truncated doc parsed")
	}
	// Known root, but an ID field that fails jid parsing.
	if _, err := Unmarshal([]byte("<PipeAdvertisement><Id>bogus</Id></PipeAdvertisement>")); err == nil {
		t.Fatal("bogus ID parsed")
	}
}

func TestGroupServiceAccessors(t *testing.T) {
	g := sampleGroupAdv()
	if _, ok := g.Service("jxta.service.wire"); !ok {
		t.Fatal("wire service not found")
	}
	if _, ok := g.Service("absent"); ok {
		t.Fatal("absent service found")
	}
	g.SetService(ServiceAdv{Name: "jxta.service.wire", Version: "2.0"})
	s, _ := g.Service("jxta.service.wire")
	if s.Version != "2.0" {
		t.Fatalf("SetService did not replace: %+v", s)
	}
	if len(g.Services) != 1 {
		t.Fatalf("SetService duplicated: %d", len(g.Services))
	}
	g.SetService(ServiceAdv{Name: "jxta.service.resolver"})
	if len(g.Services) != 2 {
		t.Fatal("SetService did not append new service")
	}
}

func TestMatch(t *testing.T) {
	p := samplePipeAdv() // Name "PS.SkiRental"
	cases := []struct {
		attr, value string
		want        bool
	}{
		{"", "anything", true},
		{"Name", "PS.SkiRental", true},
		{"Name", "PS.Ski*", true},
		{"Name", "PS.*", true},
		{"Name", "*", true},
		{"Name", "PS.Bike*", false},
		{"Name", "ps.skirental", false}, // case sensitive
		{"ID", p.PipeID.String(), true},
		{"ID", jid.New(jid.KindPipe).String(), false},
		{"Unsupported", "x", false},
	}
	for _, c := range cases {
		if got := Match(p, c.attr, c.value); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.attr, c.value, got, c.want)
		}
	}
}

func TestRecordAging(t *testing.T) {
	now := time.Unix(1000, 0)
	r := Record{
		Adv:        samplePipeAdv(),
		Published:  now,
		Lifetime:   time.Hour,
		Expiration: 30 * time.Minute,
	}
	if r.Expired(now) {
		t.Fatal("expired at publication")
	}
	if r.Expired(now.Add(59 * time.Minute)) {
		t.Fatal("expired before lifetime")
	}
	if !r.Expired(now.Add(time.Hour)) {
		t.Fatal("not expired at lifetime")
	}
	if got := r.Age(now.Add(10 * time.Minute)); got != 10*time.Minute {
		t.Fatalf("Age = %v", got)
	}
	if got := r.RemainingExpiration(now.Add(10 * time.Minute)); got != 20*time.Minute {
		t.Fatalf("RemainingExpiration = %v", got)
	}
	if got := r.RemainingExpiration(now.Add(2 * time.Hour)); got != 0 {
		t.Fatalf("RemainingExpiration past end = %v", got)
	}
	newer := Record{Published: now.Add(time.Minute)}
	if !newer.Fresher(r) || r.Fresher(newer) {
		t.Fatal("Fresher ordering wrong")
	}
}

func TestKindString(t *testing.T) {
	if Peer.String() != "PEER" || Group.String() != "GROUP" || Adv.String() != "ADV" {
		t.Fatal("kind names wrong")
	}
	if Kind(0).String() != "KIND(?)" {
		t.Fatal("zero kind should be invalid")
	}
}

// Property: peer advertisements round-trip for arbitrary names and
// address lists (XML escaping must not lose data).
func TestQuickPeerAdvRoundTrip(t *testing.T) {
	f := func(seed uint64, name string, addrs []string) bool {
		if !validXMLText(name) {
			return true // XML cannot carry arbitrary control bytes; skip
		}
		for _, a := range addrs {
			if !validXMLText(a) {
				return true
			}
		}
		orig := &PeerAdv{
			PeerID:    jid.FromSeed(jid.KindPeer, seed),
			GroupID:   jid.NetGroup,
			Name:      name,
			Addresses: addrs,
		}
		doc, err := Marshal(orig)
		if err != nil {
			return false
		}
		got, err := Unmarshal(doc)
		if err != nil {
			return false
		}
		p, ok := got.(*PeerAdv)
		if !ok {
			return false
		}
		if len(orig.Addresses) == 0 && len(p.Addresses) == 0 {
			return p.PeerID == orig.PeerID && p.Name == orig.Name
		}
		return p.PeerID == orig.PeerID && p.Name == orig.Name &&
			reflect.DeepEqual(p.Addresses, orig.Addresses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// validXMLText reports whether s survives an XML round trip: Go's encoder
// rejects or mangles control characters and CR.
func validXMLText(s string) bool {
	for _, r := range s {
		if r < 0x20 && r != '\t' && r != '\n' {
			return false
		}
		if r >= 0xFFFD && r <= 0xFFFF || r == '\r' { // U+FFFE and U+FFFF are not XML characters either
			return false
		}
	}
	return strings.ToValidUTF8(s, "") == s
}
