// Package benchkit builds the measurement setups of the paper's §5: the
// same ski-rental workload on three stacks —
//
//   - WIRE: the raw JXTA wire service (the paper's lower-bound
//     reference, no TPS-equivalent functionality at all);
//   - SR-JXTA: the ski-rental application written directly on JXTA
//     (package srjxta);
//   - SR-TPS: the ski-rental application over the TPS layer (package
//     srtps);
//
// and the three experiment protocols: invocation time (Figure 18),
// publisher throughput (Figure 19) and subscriber throughput
// (Figure 20).
//
// Topology: publishers act as rendezvous and subscribers lease with
// every publisher, reproducing the LAN setup where the wire service
// fans out from the publishing side — which is why the paper's
// invocation time degrades with the number of subscribers.
//
// The netsim profile models the paper's 2001-era testbed (Sun Ultra 10,
// FastEthernet, JXTA 1.0): slow receiver-side processing bounds the
// subscriber throughput near the paper's ≈8 events/s at scale 1.0.
// Scale compresses all simulated costs proportionally so the full suite
// runs in seconds; ratios between stacks — the reproducible shape — are
// scale-invariant.
package benchkit

import (
	"errors"
	"fmt"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/srapp"
)

// Stack selects the implementation under test.
type Stack int

// The three stacks of §5.
const (
	StackWire Stack = iota + 1
	StackSRJXTA
	StackSRTPS
)

// String returns the paper's name for the stack.
func (s Stack) String() string {
	switch s {
	case StackWire:
		return "JXTA-WIRE"
	case StackSRJXTA:
		return "SR-JXTA"
	case StackSRTPS:
		return "SR-TPS"
	default:
		return "stack(?)"
	}
}

// Profile calibrates the simulated testbed.
type Profile struct {
	// Scale compresses every simulated cost: 1.0 reproduces paper-like
	// absolute rates (a subscriber sustains ≈8 wire events/s), 0.01 runs
	// the same shape 100× faster.
	Scale float64
	// LinkLatency and LinkJitter shape the links.
	LinkLatency time.Duration
	LinkJitter  time.Duration
	// SubPerMsg and SubBandwidth model receiver-side processing cost
	// (per message + per byte); SubSwitch is the extra cost paid when
	// consecutive deliveries come from different senders (the paper's
	// multi-publisher collapse, §5.3).
	SubPerMsg    time.Duration
	SubBandwidth int
	SubSwitch    time.Duration
	// MessageBytes pads each event to the paper's message size.
	MessageBytes int
	// Seed drives the simulation's randomness.
	Seed int64
}

// Paper2001 returns the calibrated profile at the given scale.
// At scale 1.0 a subscriber processes a 1910-byte wire message in
// ≈60 ms + 1910 B / 30 kB/s ≈ 124 ms ⇒ ≈8 events/s, matching the
// paper's JXTA-WIRE plateau in Figure 20.
func Paper2001(scale float64) Profile {
	if scale <= 0 {
		scale = 1
	}
	return Profile{
		Scale:        scale,
		LinkLatency:  scaleDur(2*time.Millisecond, scale),
		LinkJitter:   scaleDur(3*time.Millisecond, scale),
		SubPerMsg:    scaleDur(60*time.Millisecond, scale),
		SubBandwidth: int(30_000 / scale),
		SubSwitch:    scaleDur(250*time.Millisecond, scale),
		MessageBytes: 1910,
		Seed:         1,
	}
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// Publisher is the sending side of a stack.
type Publisher interface {
	// Publish sends one offer.
	Publish(offer srapp.SkiRental) error
	// Sent returns how many offers this publisher has sent.
	Sent() int
}

// Subscriber is the receiving side of a stack.
type Subscriber interface {
	// Received returns how many offers this subscriber has received.
	Received() int
}

// Config describes one measurement cluster.
type Config struct {
	Stack       Stack
	Publishers  int
	Subscribers int
	Profile     Profile
}

// Cluster is a ready-to-measure fleet: publishers (acting as
// rendezvous), subscribers, and the simulated WAN between them.
type Cluster struct {
	cfg  Config
	net  *netsim.Network
	Pubs []Publisher
	Subs []Subscriber

	closers []func()
}

// ErrNotReady is returned when the cluster cannot reach its connected
// steady state in time.
var ErrNotReady = errors.New("benchkit: cluster never became ready")

// NewCluster builds and connects a cluster, blocking until every
// subscriber provably receives from every publisher (warm-up events).
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Publishers < 1 || cfg.Subscribers < 1 {
		return nil, errors.New("benchkit: need at least one publisher and one subscriber")
	}
	if cfg.Profile.Scale == 0 {
		cfg.Profile = Paper2001(0.01)
	}
	c := &Cluster{
		cfg: cfg,
		net: netsim.New(netsim.Config{
			Seed: cfg.Profile.Seed,
			DefaultLink: netsim.Link{
				Latency: cfg.Profile.LinkLatency,
				Jitter:  cfg.Profile.LinkJitter,
			},
		}),
	}
	c.closers = append(c.closers, c.net.Close)

	pubAddrs := make([]endpoint.Address, 0, cfg.Publishers)
	for i := 0; i < cfg.Publishers; i++ {
		pubAddrs = append(pubAddrs, endpoint.Address(fmt.Sprintf("mem://pub%d", i)))
	}
	var err error
	switch cfg.Stack {
	case StackWire:
		err = c.buildWire(pubAddrs)
	case StackSRJXTA:
		err = c.buildSRJXTA(pubAddrs)
	case StackSRTPS:
		err = c.buildSRTPS(pubAddrs)
	default:
		err = fmt.Errorf("benchkit: unknown stack %d", cfg.Stack)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	if err := c.warmUp(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// pubNode creates the netsim node + peer for publisher i (rendezvous
// role; subscribers lease with it).
func (c *Cluster) pubNode(i int) (*netsim.Node, error) {
	return c.net.AddNode(fmt.Sprintf("pub%d", i))
}

// subNode creates the netsim node for subscriber j with the profile's
// receiver-side processing cost.
func (c *Cluster) subNode(j int) (*netsim.Node, error) {
	return c.net.AddNode(fmt.Sprintf("sub%d", j),
		netsim.WithProcessing(c.cfg.Profile.SubPerMsg, c.cfg.Profile.SubBandwidth),
		netsim.WithSwitchPenalty(c.cfg.Profile.SubSwitch))
}

// newPeer assembles a jxta peer on a node.
func newPeer(name string, node *netsim.Node, role rendezvous.Role, seeds []endpoint.Address) (*peer.Peer, error) {
	return peer.New(peer.Config{
		Name:       name,
		Rendezvous: rendezvous.Config{Role: role, Seeds: seeds, LeaseTTL: 10 * time.Second},
	}, memnet.New(node))
}

// newPlatform assembles a TPS platform on a node.
func newPlatform(name string, node *netsim.Node, isRdv bool, seeds []endpoint.Address) (*tps.Platform, error) {
	strSeeds := make([]string, len(seeds))
	for i, s := range seeds {
		strSeeds[i] = string(s)
	}
	return tps.NewPlatform(tps.Config{
		Name:         name,
		Rendezvous:   isRdv,
		Seeds:        strSeeds,
		LeaseTTL:     10 * time.Second,
		FindInterval: 100 * time.Millisecond,
	}, tps.WithTransport(memnet.New(node)))
}

// warmUp publishes marker events from every publisher until every
// subscriber has received at least one event from each round, proving
// the mesh is fully connected before measurement starts.
func (c *Cluster) warmUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for p, pub := range c.Pubs {
		base := make([]int, len(c.Subs))
		for j, sub := range c.Subs {
			base[j] = sub.Received()
		}
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: publisher %d unseen by some subscriber", ErrNotReady, p)
			}
			if err := pub.Publish(srapp.SkiRental{Shop: "warmup", Brand: "warmup"}); err == nil {
				allSeen := true
				probeDeadline := time.Now().Add(time.Second)
				for allSeen {
					allSeen = true
					for j, sub := range c.Subs {
						if sub.Received() <= base[j] {
							allSeen = false
							break
						}
					}
					if allSeen || time.Now().After(probeDeadline) {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if allSeen {
					break
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	// Let in-flight warm-up traffic drain so it does not pollute the
	// measurement.
	c.net.WaitQuiesce(10 * time.Second)
	return nil
}

// Offer builds the padded test offer used by all experiments.
func (c *Cluster) Offer(i int) srapp.SkiRental {
	offer := srapp.SkiRental{
		Shop:         "XTremShop",
		Brand:        srapp.Brands[i%len(srapp.Brands)],
		Price:        14,
		NumberOfDays: 100,
	}
	// Pad to the paper's 1910-byte message size, minus a rough estimate
	// of envelope overhead so the wire frames land near the target.
	return srapp.Pad(offer, c.cfg.Profile.MessageBytes-200)
}

// ReceivedTotal sums all subscribers' receive counters.
func (c *Cluster) ReceivedTotal() int {
	total := 0
	for _, s := range c.Subs {
		total += s.Received()
	}
	return total
}

// WaitQuiesce drains in-flight traffic.
func (c *Cluster) WaitQuiesce(timeout time.Duration) bool {
	return c.net.WaitQuiesce(timeout)
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}
