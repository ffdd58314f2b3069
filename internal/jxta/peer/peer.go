// Package peer assembles a complete JXTA peer: an endpoint with its
// transports, the peer's one rendezvous service, and the event groups
// the peer joins over its lifetime.
//
// A peer runs one rendezvous service, built in New, whatever it joins:
// its leases, failure detector, active/standby election and duplicate
// cache are the peer's. A group is a lease on that service. The net
// group is leased from the start and no event travels in it: it is the
// lease AwaitRendezvous and /health read, and the group an application
// that finds groups by advertisement runs its discovery in (package
// discovery; the peer builds none). An event group is a wire on the
// service and, on an edge, a lease for the group with each seed. A
// rendezvous leases every group at once, so on a rendezvous a group is
// the wire alone: the role is the only switch.
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

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// Errors.
var (
	ErrClosed       = errors.New("peer: closed")
	ErrNoTransports = errors.New("peer: no transports")
	ErrAlreadyIn    = errors.New("peer: already joined group")
)

// Config configures a peer.
type Config struct {
	// Name is the peer's human-readable name.
	Name string
	// ID fixes the peer identity; zero generates a fresh one. Restarted
	// peers pass their old ID to keep the cursors and replica copies
	// that name it.
	ID jid.ID
	// Rendezvous configures the peer's rendezvous service: role (zero
	// means edge), seeds, lease, event log, tracer, failover, replica
	// set.
	Rendezvous rendezvous.Config
}

// Group is this peer's instance of an event group: the wire that carries
// its traffic over the peer's rendezvous service.
type Group struct {
	param string
	Wire  *wire.Service
}

// Param returns the endpoint service parameter scoping this group: its
// ID as a string, and the log topic of its events.
func (g *Group) Param() string { return g.param }

// Peer is a running JXTA peer.
type Peer struct {
	cfg Config
	ep  *endpoint.Service
	rdv *rendezvous.Service // fixed in New

	// joinMu serialises JoinGroup: constructing two wires for the same
	// group concurrently would collide on endpoint handler registration.
	joinMu sync.Mutex

	mu     sync.Mutex
	groups map[jid.ID]*Group
	closed bool
}

// New starts a peer with the given transports and its rendezvous
// service, leasing the net group on an edge.
func New(cfg Config, transports ...endpoint.Transport) (*Peer, error) {
	if len(transports) == 0 {
		return nil, ErrNoTransports
	}
	if cfg.ID.IsZero() {
		cfg.ID = jid.NewPeer()
	}
	if cfg.Rendezvous.Role == 0 {
		cfg.Rendezvous.Role = rendezvous.RoleEdge
	}
	p := &Peer{cfg: cfg, ep: endpoint.New(cfg.ID), groups: make(map[jid.ID]*Group)}
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
	if p.rdv, err = rendezvous.New(p.ep, p.cfg.Rendezvous); err != nil {
		return err
	}
	p.rdv.Join(jid.NetGroup.String())
	return nil
}

// ID returns the peer's identity.
func (p *Peer) ID() jid.ID { return p.cfg.ID }

// Name returns the peer's name.
func (p *Peer) Name() string { return p.cfg.Name }

// Endpoint exposes the endpoint service (stats, addresses).
func (p *Peer) Endpoint() *endpoint.Service { return p.ep }

// Addresses returns the peer's reachable addresses, best first.
func (p *Peer) Addresses() []endpoint.Address { return p.ep.LocalAddresses() }

// Rendezvous returns the peer's one rendezvous service.
func (p *Peer) Rendezvous() *rendezvous.Service { return p.rdv }

// Closed reports whether Close has been called.
func (p *Peer) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Group returns the joined event group with the given ID.
func (p *Peer) Group(id jid.ID) (*Group, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[id]
	return g, ok
}

// Groups lists the joined event groups.
func (p *Peer) Groups() []*Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Group, 0, len(p.groups))
	for _, g := range p.groups {
		out = append(out, g)
	}
	return out
}

// JoinGroup joins the event group on this peer: the group's wire on the
// rendezvous service and, on an edge, its lease with the seeds.
func (p *Peer) JoinGroup(id jid.ID, name string) (*Group, error) {
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

	g := &Group{param: id.String()}
	var err error
	if g.Wire, err = wire.New(p.ep, p.rdv, wire.Config{Group: g.param}); err != nil {
		return nil, fmt.Errorf("group %q: %w", name, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		g.Wire.Close()
		return nil, ErrClosed
	}
	p.groups[id] = g
	p.mu.Unlock()
	p.rdv.Join(g.param)
	return g, nil
}

// LeaveGroup closes the event group's wire and ends its lease.
func (p *Peer) LeaveGroup(id jid.ID) {
	p.mu.Lock()
	g, ok := p.groups[id]
	delete(p.groups, id)
	p.mu.Unlock()
	if ok {
		g.leave(p.rdv)
	}
}

func (g *Group) leave(rdv *rendezvous.Service) {
	g.Wire.Close()
	rdv.Leave(g.param)
}

// Close leaves every event group, stops the rendezvous service and
// shuts the endpoint down.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	groups := p.groups
	p.groups = map[jid.ID]*Group{}
	p.mu.Unlock()
	for _, g := range groups {
		g.leave(p.rdv)
	}
	if p.rdv != nil {
		p.rdv.Close()
	}
	_ = p.ep.Close()
}
