package adv

import (
	"encoding/xml"

	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// Document type names. They double as the XML root element names.
const (
	TypePeer      = "jxta:PeerAdvertisement"
	TypePeerGroup = "jxta:PeerGroupAdvertisement"
	TypePipe      = "jxta:PipeAdvertisement"
	TypeService   = "jxta:ServiceAdvertisement"
)

// Pipe type attribute values.
const (
	// PipeUnicast is an asynchronous unidirectional point-to-point pipe.
	PipeUnicast = "JxtaUnicast"
	// PipePropagate is a many-to-many propagated pipe (the wire service).
	PipePropagate = "JxtaPropagate"
)

// PeerAdv announces a peer: its identity, name, the group it lives in,
// the endpoint addresses it listens on, and whether it acts as a
// rendezvous for others.
type PeerAdv struct {
	XMLName    xml.Name `xml:"PeerAdvertisement"`
	PeerID     jid.ID   `xml:"PID"`
	GroupID    jid.ID   `xml:"GID"`
	Name       string   `xml:"Name"`
	Desc       string   `xml:"Desc,omitempty"`
	Addresses  []string `xml:"EndpointAddresses>Addr"`
	Rendezvous bool     `xml:"IsRendezvous,omitempty"`
}

// AdvType implements Advertisement.
func (a *PeerAdv) AdvType() string { return TypePeer }

// AdvID implements Advertisement.
func (a *PeerAdv) AdvID() jid.ID { return a.PeerID }

// AdvName implements Advertisement.
func (a *PeerAdv) AdvName() string { return a.Name }

// Kind implements Advertisement.
func (a *PeerAdv) Kind() Kind { return Peer }

// PipeAdv announces a pipe: a virtual, address-independent communication
// channel identified solely by its pipe ID. In the paper's TPS layer the
// pipe name is the name of the event type the pipe carries.
type PipeAdv struct {
	XMLName xml.Name `xml:"PipeAdvertisement"`
	PipeID  jid.ID   `xml:"Id"`
	Type    string   `xml:"Type"`
	Name    string   `xml:"Name"`
}

// AdvType implements Advertisement.
func (a *PipeAdv) AdvType() string { return TypePipe }

// AdvID implements Advertisement.
func (a *PipeAdv) AdvID() jid.ID { return a.PipeID }

// AdvName implements Advertisement.
func (a *PipeAdv) AdvName() string { return a.Name }

// Kind implements Advertisement.
func (a *PipeAdv) Kind() Kind { return Adv }

// ServiceAdv describes a service offered inside a peer group, optionally
// bound to a pipe (the wire service advertises its propagated pipe this
// way, cf. the paper's AdvertisementsCreator lines 27–44).
type ServiceAdv struct {
	XMLName  xml.Name `xml:"ServiceAdvertisement"`
	Name     string   `xml:"Name"`
	Version  string   `xml:"Version,omitempty"`
	URI      string   `xml:"Uri,omitempty"`
	Code     string   `xml:"Code,omitempty"`
	Security string   `xml:"Security,omitempty"`
	Keywords string   `xml:"Keywords,omitempty"`
	Params   []string `xml:"Params>Param,omitempty"`
	Pipe     *PipeAdv `xml:"PipeAdvertisement,omitempty"`
}

// AdvType implements Advertisement.
func (a *ServiceAdv) AdvType() string { return TypeService }

// AdvID implements Advertisement. A service advertisement names its pipe's
// resource when bound to one.
func (a *ServiceAdv) AdvID() jid.ID {
	if a.Pipe != nil {
		return a.Pipe.PipeID
	}
	return jid.Nil
}

// AdvName implements Advertisement.
func (a *ServiceAdv) AdvName() string { return a.Name }

// Kind implements Advertisement.
func (a *ServiceAdv) Kind() Kind { return Adv }

// PeerGroupAdv announces a peer group together with the services it
// provides. The paper's TPS layer publishes one peer-group advertisement
// per event type, embedding the wire service bound to the type's pipe.
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

// AdvType implements Advertisement.
func (a *PeerGroupAdv) AdvType() string { return TypePeerGroup }

// AdvID implements Advertisement.
func (a *PeerGroupAdv) AdvID() jid.ID { return a.GroupID }

// AdvName implements Advertisement.
func (a *PeerGroupAdv) AdvName() string { return a.Name }

// Kind implements Advertisement.
func (a *PeerGroupAdv) Kind() Kind { return Group }

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

// Interface compliance checks.
var (
	_ Advertisement = (*PeerAdv)(nil)
	_ Advertisement = (*PipeAdv)(nil)
	_ Advertisement = (*ServiceAdv)(nil)
	_ Advertisement = (*PeerGroupAdv)(nil)
)
