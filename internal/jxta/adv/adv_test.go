package adv

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

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

// peerAdvertisement is a peer advertisement as Marshal wrote it before
// peer advertisements went: a well-formed document of another type.
const peerAdvertisement = `<PeerAdvertisement>
  <PID>urn:jxta:uuid-0000000000000001c3910c8d016b07d701</PID>
  <GID>urn:jxta:uuid-0000004e45545047717d25c48c628a1902</GID>
  <Name>PS.SkiRental</Name>
  <EndpointAddresses>
    <Addr>mem://n1</Addr>
  </EndpointAddresses>
</PeerAdvertisement>`

// roundTrip marshals a and unmarshals the document, with the XMLName
// fields the decoder fills cleared so the result compares to a.
func roundTrip(t testing.TB, a *PeerGroupAdv) *PeerGroupAdv {
	t.Helper()
	doc, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(doc)
	if err != nil {
		t.Fatalf("Unmarshal: %v\ndoc:\n%s", err, doc)
	}
	got.XMLName = a.XMLName
	for i := range got.Services {
		got.Services[i].XMLName = a.Services[i].XMLName
		if p := got.Services[i].Pipe; p != nil {
			p.XMLName = a.Services[i].Pipe.XMLName
		}
	}
	return got
}

// TestRoundTripAllTypes round-trips a group advertisement at each depth
// of its document: bare, carrying a service, and carrying a service
// bound to a pipe. Each case is named by the innermost document.
func TestRoundTripAllTypes(t *testing.T) {
	bare := sampleGroupAdv()
	bare.Services = nil
	service := sampleGroupAdv()
	service.Services[0].Pipe = nil
	for name, a := range map[string]*PeerGroupAdv{
		"jxta:PeerGroupAdvertisement": bare,
		"jxta:ServiceAdvertisement":   service,
		"jxta:PipeAdvertisement":      sampleGroupAdv(),
	} {
		t.Run(name, func(t *testing.T) {
			if got := roundTrip(t, a); !reflect.DeepEqual(got, a) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
			}
		})
	}
}

func TestRoundTripPreservesFields(t *testing.T) {
	orig := sampleGroupAdv()
	got := roundTrip(t, orig)
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, orig)
	}
	if got.Services[0].Pipe.PipeID != orig.Services[0].Pipe.PipeID {
		t.Fatalf("pipe ID %v, want %v", got.Services[0].Pipe.PipeID, orig.Services[0].Pipe.PipeID)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, doc := range []string{
		"<UnknownAdvertisement/>",
		peerAdvertisement,
		"not xml at all",
		"",
		// The right root, but the body is broken XML.
		"<PeerGroupAdvertisement><GID>oops",
		// The right root, but an ID field that fails jid parsing.
		"<PeerGroupAdvertisement><GID>bogus</GID></PeerGroupAdvertisement>",
	} {
		if _, err := Unmarshal([]byte(doc)); !errors.Is(err, ErrMalformed) {
			t.Errorf("Unmarshal(%.30q) = %v, want ErrMalformed", doc, err)
		}
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
	cases := []struct {
		pattern string
		want    bool
	}{
		{"PS.SkiRental", true},
		{"PS.Ski*", true},
		{"PS.*", true},
		{"*", true},
		{"PS.SkiRental*", true},
		{"PS.Bike*", false},
		{"ps.skirental", false}, // case sensitive
		{"PS.Ski", false},       // no '*', no prefix
		{"", false},
	}
	for _, c := range cases {
		if got := Match("PS.SkiRental", c.pattern); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.pattern, got, c.want)
		}
	}
}

func TestRecordAging(t *testing.T) {
	now := time.Unix(1000, 0)
	r := Record{
		Adv:        sampleGroupAdv(),
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

// FuzzGroupAdvertisement: arbitrary bytes never make Unmarshal panic,
// and a group advertisement built from arbitrary text comes back from
// its document field for field, embedded service and pipe included.
// Text XML cannot carry (control characters, invalid UTF-8) is skipped:
// the encoder replaces it, so no document could return it.
func FuzzGroupAdvertisement(f *testing.F) {
	doc, err := Marshal(sampleGroupAdv())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc, uint64(3), "PS.SkiRental", "ski rental event group", "jxta.service.wire", "PS.SkiRental", "PS.SkiRental", true)
	f.Add([]byte(peerAdvertisement), uint64(0), "", "", "", "", "", false)
	f.Add([]byte("<PeerGroupAdvertisement><GID>oops"), uint64(1), "a & b", "<desc>", "]]>", " ", "\t\n", false)
	f.Fuzz(func(t *testing.T, doc []byte, seed uint64, name, desc, service, keywords, pipe string, rendezvous bool) {
		_, _ = Unmarshal(doc)

		for _, s := range []string{name, desc, service, keywords, pipe} {
			if !validXMLText(s) {
				return
			}
		}
		want := &PeerGroupAdv{
			GroupID:    jid.FromSeed(jid.KindGroup, seed),
			PeerID:     jid.FromSeed(jid.KindPeer, seed),
			Name:       name,
			Desc:       desc,
			Rendezvous: rendezvous,
			Services: []ServiceAdv{{
				Name:     service,
				Keywords: keywords,
				Pipe:     &PipeAdv{PipeID: jid.FromSeed(jid.KindPipe, seed), Type: PipePropagate, Name: pipe},
			}},
		}
		if _, err := Marshal(want); err != nil {
			return
		}
		if got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
}

// validXMLText reports whether s survives an XML round trip: Go's encoder
// replaces control characters and CR.
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
