// Package peer assembles a complete JXTA peer: an endpoint with its
// transports, the net group's control plane, and the event groups the
// peer joins over its lifetime.
//
// Each stack follows its traffic. The net group is a peergroup.Core —
// a rendezvous and the discovery that speaks over it — where
// advertisements are found; it carries no events. An event group is a
// rendezvous service and a wire. On an edge, each event group gets a
// rendezvous client of its own. A peer whose role is rendezvous serves
// every event group, its own included, with one wildcard rendezvous
// service started in New, and a group it joins builds only its wire on
// that service: the role is the only switch.
//
// Any networked device is a peer; a peer with extra duties (rendezvous)
// is just a peer configured with that role. A peer that crashes and
// restarts under the same Config.ID keeps its identity wherever it
// reappears. What a peer reports about itself — traffic, uptime, leases —
// is read from its stats registry and admin surface, not asked over the
// network.
package peer

import (
	"errors"
	"fmt"
	"sync"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peergroup"
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
	// log, tracer, failover, replica set. The net group's service takes
	// it without the log and the replica set; the wildcard service of a
	// rendezvous peer, or an edge's per-group client, takes it whole.
	Rendezvous rendezvous.Config
}

// Peer is a running JXTA peer.
type Peer struct {
	cfg Config
	ep  *endpoint.Service
	// wild serves every event group on a rendezvous-role peer; nil on an
	// edge. Fixed in New.
	wild *rendezvous.Service

	// joinMu serialises JoinGroup: constructing two stacks for the same
	// group concurrently would collide on endpoint handler registration.
	joinMu sync.Mutex

	mu     sync.Mutex
	net    *peergroup.Core
	groups map[jid.ID]*peergroup.Group
	closed bool
}

// New starts a peer with the given transports: the net group's control
// plane and, on a rendezvous-role peer, the wildcard service.
func New(cfg Config, transports ...endpoint.Transport) (*Peer, error) {
	if len(transports) == 0 {
		return nil, ErrNoTransports
	}
	if cfg.ID.IsZero() {
		cfg.ID = jid.NewPeer()
	}
	p := &Peer{cfg: cfg, ep: endpoint.New(cfg.ID), groups: make(map[jid.ID]*peergroup.Group)}
	if err := p.start(transports); err != nil {
		p.Close()
		return nil, fmt.Errorf("peer %q: %w", cfg.Name, err)
	}
	return p, nil
}

func (p *Peer) start(transports []endpoint.Transport) (err error) {
	for _, t := range transports {
		if err := p.ep.AddTransport(t); err != nil {
			return err
		}
	}
	if p.net, err = peergroup.NewCore(p.ep, p.cfg.Rendezvous); err != nil {
		return err
	}
	if p.cfg.Rendezvous.Role == rendezvous.RoleRendezvous {
		wcfg := p.cfg.Rendezvous
		wcfg.GroupParam = "" // wildcard: serve every group
		p.wild, err = rendezvous.New(p.ep, wcfg)
	}
	return err
}

// ID returns the peer's identity.
func (p *Peer) ID() jid.ID { return p.cfg.ID }

// Name returns the peer's name.
func (p *Peer) Name() string { return p.cfg.Name }

// Endpoint exposes the endpoint service (stats, addresses).
func (p *Peer) Endpoint() *endpoint.Service { return p.ep }

// Addresses returns the peer's reachable addresses, best first.
func (p *Peer) Addresses() []endpoint.Address { return p.ep.LocalAddresses() }

// NetGroup returns the net group's control plane, or nil once the peer
// is closed.
func (p *Peer) NetGroup() *peergroup.Core {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.net
}

// Group returns the joined event group with the given ID.
func (p *Peer) Group(id jid.ID) (*peergroup.Group, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[id]
	return g, ok
}

// Groups lists the joined event groups.
func (p *Peer) Groups() []*peergroup.Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*peergroup.Group, 0, len(p.groups))
	for _, g := range p.groups {
		out = append(out, g)
	}
	return out
}

// Rendezvous lists every live rendezvous service of this peer: the net
// group's, then the wildcard service on a rendezvous peer or, on an
// edge, one per joined event group.
func (p *Peer) Rendezvous() []*rendezvous.Service {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.net == nil {
		return nil
	}
	out := make([]*rendezvous.Service, 1, len(p.groups)+2)
	out[0] = p.net.Rendezvous
	if p.wild != nil {
		return append(out, p.wild)
	}
	for _, g := range p.groups {
		out = append(out, g.Rendezvous)
	}
	return out
}

// JoinGroup instantiates the event group's stack on this peer from the
// peer's rendezvous template: the group's wire on the wildcard service
// of a rendezvous peer, a rendezvous client and a wire on an edge.
func (p *Peer) JoinGroup(id jid.ID, name string) (*peergroup.Group, error) {
	p.joinMu.Lock()
	defer p.joinMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := p.groups[id]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrAlreadyIn, id)
	}
	p.mu.Unlock()

	cfg := peergroup.Config{ID: id, Name: name, Rendezvous: p.cfg.Rendezvous}
	var g *peergroup.Group
	var err error
	if p.wild != nil {
		g, err = peergroup.NewShared(p.ep, p.wild, cfg)
	} else {
		g, err = peergroup.New(p.ep, cfg)
	}
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		g.Close()
		return nil, ErrClosed
	}
	p.groups[id] = g
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
	g, err := p.JoinGroup(pg.GroupID, pg.Name)
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

// LeaveGroup tears down the event group's stack on this peer. A
// rendezvous peer's wildcard service keeps running: it serves every
// group.
func (p *Peer) LeaveGroup(id jid.ID) {
	p.mu.Lock()
	g, ok := p.groups[id]
	delete(p.groups, id)
	p.mu.Unlock()
	if ok {
		g.Close()
	}
}

// Close leaves every event group, stops the wildcard service and the
// net group's control plane, and shuts the endpoint down.
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
	net := p.net
	p.net = nil
	p.mu.Unlock()
	for _, g := range groups {
		g.Close()
	}
	if p.wild != nil {
		p.wild.Close()
	}
	if net != nil {
		net.Close()
	}
	_ = p.ep.Close()
}
