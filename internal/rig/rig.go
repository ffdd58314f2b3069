// Package rig is the one way tests build a cluster: real tps.Platforms,
// booted through the public API, on a fabric chosen per run — the
// simulated WAN (netsim behind memnet) or loopback TCP (tcpnet, the
// transport that ships). A scenario written against a Cluster runs
// unchanged on both; Each runs it as a /netsim and a /tcp subtest.
//
// Faults are injected in one place, a transport wrapped around every
// node's real one (link.go), so Kill, Partition, Lossy and Throttle
// mean the same thing on either fabric. Everything a scenario observes
// it reads where an operator would: Platform.Stats, Platform.Inspect,
// the admin endpoint — and a Probe subscribed like any application.
package rig

import (
	"cmp"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/netsim"
)

// Fabric names what carries a cluster's frames: Netsim or TCP.
type Fabric string

const (
	Netsim Fabric = "netsim"
	TCP    Fabric = "tcp"
)

// Each runs body once per fabric, as subtests named after them. The two
// run side by side: a scenario is mostly waiting.
func Each(t *testing.T, body func(t *testing.T, c *Cluster)) {
	for _, f := range []Fabric{Netsim, TCP} {
		t.Run(string(f), func(t *testing.T) {
			t.Parallel()
			body(t, New(t, f))
		})
	}
}

// Cluster is a set of platforms on one fabric, torn down with the test.
type Cluster struct {
	t      testing.TB
	fabric Fabric
	wan    *netsim.Network                // Netsim only
	opts   map[string][]netsim.NodeOption // Netsim only: see Firewall

	mu    sync.Mutex
	links map[string]*link         // by node name, started or only named so far
	side  map[endpoint.Address]int // partition group of a node; absent: reaches everyone

	moved atomic.Int64 // frames handed to or by any link, for Settle
}

// New creates an empty cluster on the fabric.
func New(t testing.TB, fabric Fabric) *Cluster {
	c := &Cluster{t: t, fabric: fabric, links: map[string]*link{}, opts: map[string][]netsim.NodeOption{}}
	if fabric == Netsim {
		c.wan = netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: time.Millisecond}})
		t.Cleanup(c.wan.Close)
	}
	return c
}

// Node is one running platform of the cluster. The embedded Platform is
// the whole of its interface to a scenario.
type Node struct {
	*tps.Platform
	Config tps.Config // as given to Start
	link   *link
}

// Start boots a platform. cfg is what an application would pass, with
// two differences: Name, Seeds and ReplicaSeeds hold node names of this
// cluster (started or not — an address is kept for a name from its first
// mention), and zero timings take test-sized values (replay retries
// every 100 ms, lease 2 s) instead of the defaults.
func (c *Cluster) Start(cfg tps.Config) *Node {
	c.t.Helper()
	boot := cfg
	boot.Seeds, boot.ReplicaSeeds = c.addrs(cfg.Seeds), c.addrs(cfg.ReplicaSeeds)
	boot.FindInterval = cmp.Or(cfg.FindInterval, 100*time.Millisecond)
	boot.LeaseTTL = cmp.Or(cfg.LeaseTTL, 2*time.Second)
	l := c.link(cfg.Name)
	p, err := tps.NewPlatform(boot, tps.WithTransport(l))
	if err != nil {
		c.t.Fatalf("rig: start %s: %v", cfg.Name, err)
	}
	c.t.Cleanup(p.Close)
	return &Node{Platform: p, Config: cfg, link: l}
}

// Firewall puts the named nodes behind netsim's firewall: a frame
// reaches one only from a node it has itself sent to. Call it before the
// names' first mention. Netsim only — tcpnet never sends down a
// connection it accepted, so it has nothing to emulate this with.
func (c *Cluster) Firewall(names ...string) {
	if c.fabric != Netsim {
		c.t.Fatalf("rig: Firewall on the %s fabric", c.fabric)
	}
	for _, name := range names {
		c.opts[name] = []netsim.NodeOption{netsim.WithFirewall()}
	}
}

// Kill crashes the node: from this instant nothing it sends leaves it —
// not even the lease disconnect a closing platform owes its rendezvous —
// and then its transport closes, so that sends to it fail and the rest
// of the cluster has to notice on its own.
func (c *Cluster) Kill(n *Node) {
	n.link.dead.Store(true)
	n.Close()
}

// Restart kills the node if it still runs and boots its configuration
// again: same name, same address, same LogDir.
func (c *Cluster) Restart(n *Node) *Node {
	c.Kill(n)
	return c.Start(n.Config)
}

// Partition cuts the cluster into the named groups: a send from a node
// of one group to a node of another fails at the sender, in both
// directions. Nodes in no group keep reaching everyone. Heal undoes it.
func (c *Cluster) Partition(groups ...[]string) {
	side := map[endpoint.Address]int{}
	for i, g := range groups {
		for _, name := range g {
			side[c.link(name).LocalAddress()] = i
		}
	}
	c.mu.Lock()
	c.side = side
	c.mu.Unlock()
}

// Heal ends the partition.
func (c *Cluster) Heal() { c.Partition() }

// Lossy makes the share p of the frames that reach n vanish, silently —
// no sender learns of it. The draws come from seed.
func (c *Cluster) Lossy(n *Node, p float64, seed int64) {
	n.link.mu.Lock()
	n.link.loss, n.link.rng = p, rand.New(rand.NewSource(seed))
	n.link.mu.Unlock()
}

// Throttle makes n a slow consumer: every frame that reaches it costs
// perFrame before the next one is looked at.
func (c *Cluster) Throttle(n *Node, perFrame time.Duration) { n.link.delay.Store(int64(perFrame)) }

// Settle returns once no frame has left or reached any node for 50 ms —
// what a stray duplicate would need to surface — or after two seconds
// of traffic that never pauses.
func (c *Cluster) Settle() {
	deadline := time.Now().Add(2 * time.Second)
	for last := int64(-1); time.Now().Before(deadline); {
		now := c.moved.Load()
		if now == last {
			return
		}
		last = now
		time.Sleep(50 * time.Millisecond)
	}
}

// addrs resolves node names to addresses.
func (c *Cluster) addrs(names []string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = string(c.link(name).LocalAddress())
	}
	return out
}

// link returns the named node's link, with a live transport under it:
// created on the first mention of the name, reopened on the same address
// after a Kill.
func (c *Cluster) link(name string) *link {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.links[name]
	if l != nil && !l.dead.Load() {
		return l
	}
	var t endpoint.Transport
	var err error
	if c.fabric == Netsim {
		var node *netsim.Node
		node, err = c.wan.AddNode(name, c.opts[name]...)
		t = memnet.New(node)
	} else if l != nil {
		t, err = tcpnet.Listen(l.LocalAddress().Host())
	} else {
		t, err = tcpnet.Listen("127.0.0.1:0")
	}
	if err != nil {
		c.t.Fatalf("rig: transport for %s: %v", name, err)
	}
	// Closed by its platform when one is started on it; by this when the
	// name was only ever mentioned.
	c.t.Cleanup(func() { _ = t.Close() })
	l = &link{Transport: t, c: c}
	c.links[name] = l
	return l
}

// cut reports whether a partition separates the two addresses.
func (c *Cluster) cut(from, to endpoint.Address) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, inA := c.side[from]
	b, inB := c.side[to]
	return inA && inB && a != b
}

// waitLimit bounds Wait and Probe.Await: several times the slowest thing
// a scenario waits for (a failover, at 2 s leases).
const waitLimit = 20 * time.Second

// Wait polls cond until it holds and fails the test at waitLimit.
func Wait(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// Engine returns the node's engine for T and its interface. T is
// registered as a root unless the test registered it before; the engine
// closes with the test.
func Engine[T any](t testing.TB, n *Node) (*tps.Engine[T], *tps.Interface[T]) {
	t.Helper()
	eng, err := tps.NewEngine[T](n.Platform)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	intf, err := eng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, intf
}
