// Package peer assembles a complete JXTA peer: an endpoint with its
// transports, the bootstrap net peer group, and the groups the peer
// joins over its lifetime.
//
// Any networked device is a peer; a peer with extra duties (rendezvous)
// is just a peer configured with that role. A peer that crashes and
// restarts under the same Config.ID keeps its identity wherever it
// reappears.
package peer

import (
	"errors"
	"fmt"
	"sync"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peergroup"
	"github.com/tps-p2p/tps/internal/jxta/peerinfo"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// Errors.
var (
	ErrClosed       = errors.New("peer: closed")
	ErrNoTransports = errors.New("peer: no transports")
	ErrAlreadyIn    = errors.New("peer: already joined group")
	ErrNoWireInAdv  = errors.New("peer: advertisement has no wire service pipe")
)

// Config configures a peer.
type Config struct {
	// Name is the peer's human-readable name.
	Name string
	// ID fixes the peer identity; zero generates a fresh one. Restarted
	// peers pass their old ID to keep their pipes and advertisements.
	ID jid.ID
	// Rendezvous is the template every rendezvous service of this peer
	// is configured from: role (zero means edge), seeds, lease, event
	// log, tracer, failover. Joined groups take it whole, minus the
	// replica set; the daemon stack takes all of it.
	Rendezvous rendezvous.Config
}

// Peer is a running JXTA peer.
type Peer struct {
	cfg Config
	ep  *endpoint.Service

	// joinMu serialises JoinGroup: constructing two stacks for the same
	// group concurrently would collide on endpoint handler registration.
	joinMu sync.Mutex

	mu     sync.Mutex
	groups map[jid.ID]*peergroup.Group
	net    *peergroup.Group
	pip    *peerinfo.Service // on the net group's resolver
	daemon *peergroup.Core   // wildcard stack, nil unless EnableDaemon ran
	closed bool
}

// New starts a peer with the given transports, joins the net peer group
// and starts the peer's one Peer Information responder on it.
func New(cfg Config, transports ...endpoint.Transport) (*Peer, error) {
	if len(transports) == 0 {
		return nil, ErrNoTransports
	}
	if cfg.ID.IsZero() {
		cfg.ID = jid.NewPeer()
	}
	ep := endpoint.New(cfg.ID)
	for _, t := range transports {
		if err := ep.AddTransport(t); err != nil {
			_ = ep.Close()
			return nil, fmt.Errorf("peer %q: %w", cfg.Name, err)
		}
	}
	p := &Peer{cfg: cfg, ep: ep, groups: make(map[jid.ID]*peergroup.Group)}
	netGroup, err := p.JoinGroup(peergroup.Config{
		ID:   jid.NetGroup,
		Name: "NetPeerGroup",
	})
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	p.net = netGroup
	if p.pip, err = peerinfo.New(netGroup.Resolver, ep); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// ID returns the peer's identity.
func (p *Peer) ID() jid.ID { return p.cfg.ID }

// Name returns the peer's name.
func (p *Peer) Name() string { return p.cfg.Name }

// Endpoint exposes the endpoint service (stats, addresses).
func (p *Peer) Endpoint() *endpoint.Service { return p.ep }

// Addresses returns the peer's reachable addresses, best first.
func (p *Peer) Addresses() []endpoint.Address { return p.ep.LocalAddresses() }

// NetGroup returns the bootstrap group every peer joins at start.
func (p *Peer) NetGroup() *peergroup.Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.net
}

// PeerInfo returns the peer's Peer Information service: it answers
// queries about this endpoint's counters and asks other peers for
// theirs, over the net group's resolver.
func (p *Peer) PeerInfo() *peerinfo.Service { return p.pip }

// Group returns the joined group with the given ID.
func (p *Peer) Group(id jid.ID) (*peergroup.Group, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[id]
	return g, ok
}

// Groups lists all joined groups.
func (p *Peer) Groups() []*peergroup.Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*peergroup.Group, 0, len(p.groups))
	for _, g := range p.groups {
		out = append(out, g)
	}
	return out
}

// Rendezvous lists every live rendezvous service of this peer: one per
// joined group, plus the daemon's wildcard service if there is one.
func (p *Peer) Rendezvous() []*rendezvous.Service {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*rendezvous.Service, 0, len(p.groups)+1)
	for _, g := range p.groups {
		out = append(out, g.Rendezvous)
	}
	if p.daemon != nil {
		out = append(out, p.daemon.Rendezvous)
	}
	return out
}

// JoinGroup instantiates the group's service stack on this peer. A cfg
// whose Rendezvous is left zero takes the peer's template.
func (p *Peer) JoinGroup(cfg peergroup.Config) (*peergroup.Group, error) {
	if cfg.Rendezvous.Role == 0 {
		cfg.Rendezvous = p.cfg.Rendezvous
		// Only the daemon's wildcard service anti-entropy-syncs.
		cfg.Rendezvous.ReplicaSeeds = nil
	}
	if cfg.ID.IsZero() {
		cfg.ID = jid.NetGroup
	}
	p.joinMu.Lock()
	defer p.joinMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := p.groups[cfg.ID]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrAlreadyIn, cfg.ID)
	}
	p.mu.Unlock()

	g, err := peergroup.New(p.ep, cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		g.Close()
		return nil, ErrClosed
	}
	p.groups[cfg.ID] = g
	p.mu.Unlock()
	return g, nil
}

// JoinGroupFromAdv joins the group described by a peer-group
// advertisement found in discovery, mirroring the paper's
// WireServiceFinder: it extracts the embedded wire service and returns
// the propagated pipe advertisement to open input/output pipes with.
func (p *Peer) JoinGroupFromAdv(pg *adv.PeerGroupAdv) (*peergroup.Group, *adv.PipeAdv, error) {
	svc, ok := pg.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return nil, nil, fmt.Errorf("%w (group %q)", ErrNoWireInAdv, pg.Name)
	}
	g, err := p.JoinGroup(peergroup.Config{ID: pg.GroupID, Name: pg.Name})
	if err != nil {
		if errors.Is(err, ErrAlreadyIn) {
			if existing, found := p.Group(pg.GroupID); found {
				return existing, svc.Pipe, nil
			}
		}
		return nil, nil, err
	}
	return g, svc.Pipe, nil
}

// LeaveGroup tears down the group's service stack on this peer.
func (p *Peer) LeaveGroup(id jid.ID) {
	p.mu.Lock()
	g, ok := p.groups[id]
	delete(p.groups, id)
	if p.net != nil && ok && g == p.net {
		p.net = nil
	}
	p.mu.Unlock()
	if ok {
		g.Close()
	}
}

// SelfAdvertisement builds this peer's advertisement for publication in
// discovery.
func (p *Peer) SelfAdvertisement() *adv.PeerAdv {
	pa := &adv.PeerAdv{
		PeerID:     p.cfg.ID,
		GroupID:    jid.NetGroup,
		Name:       p.cfg.Name,
		Rendezvous: p.cfg.Rendezvous.Role == rendezvous.RoleRendezvous,
	}
	for _, a := range p.ep.LocalAddresses() {
		pa.Addresses = append(pa.Addresses, string(a))
	}
	return pa
}

// AnnounceSelf publishes the peer advertisement in the net group, both
// locally and into the mesh.
func (p *Peer) AnnounceSelf() error {
	net := p.NetGroup()
	if net == nil {
		return ErrClosed
	}
	return net.Discovery.RemotePublish(p.SelfAdvertisement(), 0)
}

// Close stops the daemon stack if any, leaves all groups and shuts the
// endpoint down.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	groups := make([]*peergroup.Group, 0, len(p.groups))
	for _, g := range p.groups {
		groups = append(groups, g)
	}
	p.groups = map[jid.ID]*peergroup.Group{}
	p.net = nil
	daemon := p.daemon
	p.daemon = nil
	p.mu.Unlock()
	if daemon != nil {
		daemon.Close()
	}
	if p.pip != nil {
		p.pip.Close()
	}
	for _, g := range groups {
		g.Close()
	}
	_ = p.ep.Close()
}
