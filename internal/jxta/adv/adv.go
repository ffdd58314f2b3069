// Package adv implements the one JXTA advertisement the TPS layer
// publishes: a peer-group advertisement per event type, embedding the
// wire service bound to the type's propagated pipe (the paper's
// Figure 15).
//
// An advertisement is an XML document announcing a resource so other
// peers can discover and use it. Every cached advertisement carries an
// age: the Peer Discovery Protocol distinguishes stale advertisements
// from fresh ones and expires cached entries whose lifetime has elapsed.
package adv

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// Pipe type attribute values.
const (
	// PipeUnicast is an asynchronous unidirectional point-to-point pipe.
	PipeUnicast = "JxtaUnicast"
	// PipePropagate is a many-to-many propagated pipe (the wire service).
	PipePropagate = "JxtaPropagate"
)

// PipeAdv describes a pipe: a virtual, address-independent communication
// channel identified solely by its pipe ID. In the paper's TPS layer the
// pipe name is the name of the event type the pipe carries.
type PipeAdv struct {
	XMLName xml.Name `xml:"PipeAdvertisement"`
	PipeID  jid.ID   `xml:"Id"`
	Type    string   `xml:"Type"`
	Name    string   `xml:"Name"`
}

// ServiceAdv describes a service offered inside a peer group, optionally
// bound to a pipe (the wire service advertises its propagated pipe this
// way, cf. the paper's AdvertisementsCreator lines 27–44).
type ServiceAdv struct {
	XMLName  xml.Name `xml:"ServiceAdvertisement"`
	Name     string   `xml:"Name"`
	Version  string   `xml:"Version,omitempty"`
	Keywords string   `xml:"Keywords,omitempty"`
	Pipe     *PipeAdv `xml:"PipeAdvertisement,omitempty"`
}

// PeerGroupAdv announces a peer group together with the services it
// provides. Its GroupID names the advertised resource: two
// advertisements with the same GroupID describe the same group, and
// caches keep the freshest one.
type PeerGroupAdv struct {
	XMLName    xml.Name     `xml:"PeerGroupAdvertisement"`
	GroupID    jid.ID       `xml:"GID"`
	PeerID     jid.ID       `xml:"PID"` // publishing peer
	Name       string       `xml:"Name"`
	Desc       string       `xml:"Desc,omitempty"`
	GroupImpl  string       `xml:"GroupImpl,omitempty"`
	App        string       `xml:"App,omitempty"`
	Rendezvous bool         `xml:"IsRendezvous,omitempty"`
	Services   []ServiceAdv `xml:"Svcs>ServiceAdvertisement,omitempty"`
}

// Service returns the named service advertisement, if present.
func (a *PeerGroupAdv) Service(name string) (ServiceAdv, bool) {
	for _, s := range a.Services {
		if s.Name == name {
			return s, true
		}
	}
	return ServiceAdv{}, false
}

// SetService replaces the named service or appends it, mirroring the
// Hashtable-based services map of the paper's AdvertisementsCreator.
func (a *PeerGroupAdv) SetService(s ServiceAdv) {
	for i := range a.Services {
		if a.Services[i].Name == s.Name {
			a.Services[i] = s
			return
		}
	}
	a.Services = append(a.Services, s)
}

// ErrMalformed is returned by Unmarshal for a document that is not a
// peer-group advertisement.
var ErrMalformed = errors.New("adv: not a peer-group advertisement")

// Marshal renders the advertisement as its XML document.
func Marshal(a *PeerGroupAdv) ([]byte, error) {
	out, err := xml.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("adv: marshal %q: %w", a.Name, err)
	}
	return out, nil
}

// Unmarshal parses a document produced by Marshal. Any other root
// element is refused by the advertisement's XMLName.
func Unmarshal(doc []byte) (*PeerGroupAdv, error) {
	a := new(PeerGroupAdv)
	if err := xml.Unmarshal(doc, a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return a, nil
}

// Default cache parameters, mirroring JXTA's defaults in spirit: locally
// published advertisements live long; what we tell remote peers is much
// shorter so stale information ages out of the network.
const (
	DefaultLifetime   = 4 * time.Hour
	DefaultExpiration = 2 * time.Hour
)

// Record is a cached advertisement plus its age bookkeeping.
type Record struct {
	Adv *PeerGroupAdv
	// Published is when the record entered this cache.
	Published time.Time
	// Lifetime is how long this cache keeps the record.
	Lifetime time.Duration
	// Expiration is the remaining lifetime announced to remote peers when
	// the record is forwarded in a discovery response.
	Expiration time.Duration
}

// Age returns how long ago the record was published here.
func (r Record) Age(now time.Time) time.Duration { return now.Sub(r.Published) }

// Expired reports whether the record has outlived its local lifetime.
func (r Record) Expired(now time.Time) bool { return r.Age(now) >= r.Lifetime }

// RemainingExpiration returns the expiration to announce to a remote peer
// at time now, never negative.
func (r Record) RemainingExpiration(now time.Time) time.Duration {
	rem := r.Expiration - r.Age(now)
	if rem < 0 {
		return 0
	}
	return rem
}

// Fresher reports whether r should replace old in a cache: a record is
// fresher if it was published later.
func (r Record) Fresher(old Record) bool { return r.Published.After(old.Published) }

// Match reports whether an advertisement name matches a query pattern. A
// trailing '*' makes the pattern a prefix, which is how the paper's
// finder locates all advertisements related to a type ("Name",
// prefix+"*").
func Match(name, pattern string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == pattern
}
