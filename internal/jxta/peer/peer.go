// Package peer assembles a complete JXTA peer: an endpoint with its
// transports and the peer's one rendezvous service.
//
// A peer runs one rendezvous service, built in New, whatever it joins:
// its leases, failure detector, active/standby election and duplicate
// cache are the peer's. A group is a lease on that service. The net
// group is leased from the start and no event travels in it: it is the
// lease AwaitRendezvous and /health read, and the group an application
// that finds groups by advertisement runs its discovery in (package
// discovery; the peer builds none). An event group is a lease, taken
// with Rendezvous().Join, beside the endpoint handler that reads the
// group's frames: the peer keeps no table of them, the rendezvous'
// lease set and the endpoint's handler table are the record. On an edge
// the lease goes to each seed; a rendezvous leases every group at once,
// so on a rendezvous a group is the handler alone: the role is the only
// switch.
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
)

// ErrNoTransports is returned by New when it is given no transport.
var ErrNoTransports = errors.New("peer: no transports")

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

// Peer is a running JXTA peer.
type Peer struct {
	cfg Config
	ep  *endpoint.Service
	rdv *rendezvous.Service // fixed in New

	mu     sync.Mutex
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
	p := &Peer{cfg: cfg, ep: endpoint.New(cfg.ID)}
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

// Close stops the rendezvous service, which tells every rendezvous this
// peer holds a lease with that it is leaving, and shuts the endpoint
// down.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	if p.rdv != nil {
		p.rdv.Close()
	}
	_ = p.ep.Close()
}
