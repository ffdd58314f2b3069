// Package peergroup composes the JXTA protocol services into peer
// groups.
//
// A peer group is a scoped environment: each group a peer joins gets
// its own rendezvous client, resolver, discovery and wire service
// instances, all parameterised by the group ID so two groups never see
// each other's traffic. There is no hierarchy between groups; a peer may
// join many to share different resources — the paper's TPS layer joins
// one group per event type.
package peergroup

import (
	"errors"
	"fmt"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/resolver"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// ErrNilEndpoint is returned when no endpoint service is supplied.
var ErrNilEndpoint = errors.New("peergroup: nil endpoint")

// Config configures a group instance on one peer.
type Config struct {
	// ID identifies the group; jid.NetGroup is the bootstrap group.
	ID jid.ID
	// Name is the human-readable group name.
	Name string
	// Rendezvous configures the group's rendezvous service: role (zero
	// means edge), seeds, lease, event log, failover. New scopes it to
	// the group by setting GroupParam; the group ID is the log topic.
	Rendezvous rendezvous.Config
}

// Core is the mesh half of a service stack: the rendezvous service and
// the resolver and discovery built on it, all scoped to one endpoint
// parameter. A Group embeds one scoped to its ID; a dedicated rendezvous
// daemon runs one scoped to "" that serves every group.
type Core struct {
	Rendezvous *rendezvous.Service
	Resolver   *resolver.Service
	Discovery  *discovery.Service
}

// NewCore builds the mesh services on ep, scoped to rcfg.GroupParam.
func NewCore(ep *endpoint.Service, rcfg rendezvous.Config) (*Core, error) {
	c := &Core{}
	if err := c.build(ep, rcfg); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Core) build(ep *endpoint.Service, rcfg rendezvous.Config) (err error) {
	if c.Rendezvous, err = rendezvous.New(ep, rcfg); err != nil {
		return err
	}
	if c.Resolver, err = resolver.New(ep, c.Rendezvous, rcfg.GroupParam); err != nil {
		return err
	}
	c.Discovery, err = discovery.New(c.Resolver)
	return err
}

// Close tears the mesh services down in reverse construction order. It
// is safe to call on a partially constructed core.
func (c *Core) Close() {
	if c.Discovery != nil {
		c.Discovery.Close()
		c.Discovery = nil
	}
	if c.Resolver != nil {
		c.Resolver.Close()
		c.Resolver = nil
	}
	if c.Rendezvous != nil {
		c.Rendezvous.Close()
		c.Rendezvous = nil
	}
}

// Group is one peer's instance of a peer group: the mesh services and
// the wire (propagated pipe) service, scoped to the group ID.
type Group struct {
	id   jid.ID
	name string
	ep   *endpoint.Service

	Core
	Wire *wire.Service
}

// New instantiates the group's service stack on the given endpoint.
func New(ep *endpoint.Service, cfg Config) (*Group, error) {
	if ep == nil {
		return nil, ErrNilEndpoint
	}
	if cfg.ID.IsZero() {
		cfg.ID = jid.NetGroup
	}
	if cfg.Rendezvous.Role == 0 {
		cfg.Rendezvous.Role = rendezvous.RoleEdge
	}
	cfg.Rendezvous.GroupParam = cfg.ID.String()
	g := &Group{id: cfg.ID, name: cfg.Name, ep: ep}
	if err := g.build(cfg); err != nil {
		g.Close()
		return nil, fmt.Errorf("peergroup %q: %w", cfg.Name, err)
	}
	return g, nil
}

func (g *Group) build(cfg Config) (err error) {
	if err = g.Core.build(g.ep, cfg.Rendezvous); err != nil {
		return err
	}
	g.Wire, err = wire.New(g.ep, g.Rendezvous, wire.Config{Group: cfg.Rendezvous.GroupParam})
	return err
}

// ID returns the group ID.
func (g *Group) ID() jid.ID { return g.id }

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Param returns the endpoint service parameter scoping this group.
func (g *Group) Param() string { return g.id.String() }

// PeerID returns the local peer's ID.
func (g *Group) PeerID() jid.ID { return g.ep.PeerID() }

// LocalAddresses returns the peer's reachable addresses.
func (g *Group) LocalAddresses() []endpoint.Address { return g.ep.LocalAddresses() }

// AwaitRendezvous blocks until the group holds a rendezvous lease or the
// timeout elapses. Groups without seeds return false immediately unless
// this peer is itself a rendezvous.
func (g *Group) AwaitRendezvous(timeout time.Duration) bool {
	return g.Rendezvous.AwaitConnected(timeout)
}

// Advertisement builds this peer's advertisement of the group, embedding
// the wire service bound to the given pipe — the structure the paper's
// AdvertisementsCreator assembles by hand (Figure 15).
func (g *Group) Advertisement(pipeAdv *adv.PipeAdv) *adv.PeerGroupAdv {
	pg := &adv.PeerGroupAdv{
		GroupID:    g.id,
		PeerID:     g.ep.PeerID(),
		Name:       g.name,
		GroupImpl:  "go-jxta-stdgroup",
		App:        "tps",
		Rendezvous: g.Rendezvous.Config().Role == rendezvous.RoleRendezvous,
	}
	if pipeAdv != nil {
		pg.SetService(adv.ServiceAdv{
			Name:     wire.ServiceName,
			Version:  "1.0",
			Keywords: pipeAdv.Name,
			Pipe:     pipeAdv,
		})
	}
	return pg
}

// Close tears the group's services down in reverse construction order.
// It is safe to call on a partially constructed group.
func (g *Group) Close() {
	if g.Wire != nil {
		g.Wire.Close()
		g.Wire = nil
	}
	g.Core.Close()
}
