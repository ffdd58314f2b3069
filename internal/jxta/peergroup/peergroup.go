// Package peergroup composes the JXTA protocol services into the two
// kinds of stack a peer runs.
//
// A Core is the net group's control plane, one per peer: a rendezvous
// service and the discovery that speaks over it. Advertisements are
// found there; no event ever travels in it, so its rendezvous logs
// nothing.
//
// A Group is one event group the peer joined: a rendezvous service and
// the wire (propagated pipe) service on it, scoped by the group ID so
// two groups never see each other's traffic. Nothing queries inside an
// event group, so it has no discovery. On an edge the group's
// rendezvous client is its own; a rendezvous peer serves every group,
// its own included, with its one wildcard service, and the group only
// borrows it. There is no hierarchy between groups; a peer may join
// many — the paper's TPS layer joins one group per event type.
package peergroup

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// ErrNilEndpoint is returned when no endpoint service is supplied.
var ErrNilEndpoint = errors.New("peergroup: nil endpoint")

// Config configures an event group instance on one peer.
type Config struct {
	// ID identifies the group; it is the endpoint parameter of the
	// group's services and the log topic of its events.
	ID jid.ID
	// Name is the human-readable group name.
	Name string
	// Rendezvous configures the group's own rendezvous client (role zero
	// means edge), seeds, lease, failover. New scopes it to the group by
	// setting GroupParam; NewShared does not read it.
	Rendezvous rendezvous.Config
}

// scoped binds rcfg to one group's endpoint parameter, as an edge unless
// it names a role.
func scoped(rcfg rendezvous.Config, id jid.ID) rendezvous.Config {
	if rcfg.Role == 0 {
		rcfg.Role = rendezvous.RoleEdge
	}
	rcfg.GroupParam = id.String()
	return rcfg
}

// Core is the net group's control plane: its rendezvous service and the
// discovery that speaks over it.
type Core struct {
	Rendezvous *rendezvous.Service
	Discovery  *discovery.Service
}

// NewCore builds the net group's control plane on ep from rcfg, scoped
// to jid.NetGroup. Its rendezvous keeps no log and no replica set
// whatever rcfg says: the net group carries queries and advertisements,
// which are neither events nor worth replaying.
func NewCore(ep *endpoint.Service, rcfg rendezvous.Config) (*Core, error) {
	rcfg = scoped(rcfg, jid.NetGroup)
	rcfg.Log, rcfg.ReplicaSeeds = nil, nil
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
	c.Discovery, err = discovery.New(ep, c.Rendezvous, rcfg.GroupParam)
	return err
}

// Close tears the control plane down in reverse construction order. It
// is safe to call on a partially constructed core.
func (c *Core) Close() {
	if c.Discovery != nil {
		c.Discovery.Close()
		c.Discovery = nil
	}
	if c.Rendezvous != nil {
		c.Rendezvous.Close()
		c.Rendezvous = nil
	}
}

// Group is one peer's instance of an event group: the rendezvous
// service that carries its traffic and the wire service on it.
type Group struct {
	param string
	// ownsRdv is set when Rendezvous was built for this group alone and
	// closes with it.
	ownsRdv bool

	Rendezvous *rendezvous.Service
	Wire       *wire.Service
}

// New builds an edge's stack for the group: a rendezvous client of its
// own, configured by cfg.Rendezvous and scoped to the group, and the
// wire on it. Close closes both.
func New(ep *endpoint.Service, cfg Config) (*Group, error) {
	if ep == nil {
		return nil, ErrNilEndpoint
	}
	rcfg := scoped(cfg.Rendezvous, cfg.ID)
	rdv, err := rendezvous.New(ep, rcfg)
	if err != nil {
		return nil, fmt.Errorf("peergroup %q: %w", cfg.Name, err)
	}
	g, err := newGroup(ep, rdv, rcfg.GroupParam, cfg.Name)
	if err != nil {
		rdv.Close()
		return nil, err
	}
	g.ownsRdv = true
	return g, nil
}

// NewShared builds the group's wire on rdv, a wildcard rendezvous
// service that serves every group and that the group neither owns nor
// closes.
func NewShared(ep *endpoint.Service, rdv *rendezvous.Service, cfg Config) (*Group, error) {
	return newGroup(ep, rdv, cfg.ID.String(), cfg.Name)
}

func newGroup(ep *endpoint.Service, rdv *rendezvous.Service, param, name string) (*Group, error) {
	w, err := wire.New(ep, rdv, wire.Config{Group: param})
	if err != nil {
		return nil, fmt.Errorf("peergroup %q: %w", name, err)
	}
	return &Group{param: param, Rendezvous: rdv, Wire: w}, nil
}

// Param returns the endpoint service parameter scoping this group: its
// ID as a string, and the log topic of its events.
func (g *Group) Param() string { return g.param }

// Close tears down the wire, and the rendezvous service if the group
// owns it. It is idempotent.
func (g *Group) Close() {
	g.Wire.Close()
	if g.ownsRdv {
		g.Rendezvous.Close()
	}
}
