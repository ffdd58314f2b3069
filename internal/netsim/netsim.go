// Package netsim simulates a wide-area network inside one process.
//
// A Network hosts named nodes connected by directed links with
// configurable latency, jitter, bandwidth and loss, and nodes with a
// receive-side processing cost: what only a simulator can give a test
// or a benchmark (internal/benchkit's 2001 testbed profile is built from
// them). Nodes can be firewalled (they refuse unsolicited inbound
// traffic until they have opened an outbound flow, the way NAT/firewall
// traversal behaves for the Endpoint Routing Protocol).
//
// Fault injection for clusters of platforms — crash, restart, partition,
// loss, slow consumers — lives in internal/rig, in a transport wrapped
// around this one or around TCP, so that a fault means the same on
// both. A single link can still be taken down here (Link.Down).
//
// Delivery preserves per-(sender,receiver) FIFO order, matching what a
// TCP connection between two peers would provide. All randomness (loss,
// jitter) comes from a single seeded source so runs are reproducible.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Link describes one direction of connectivity between two nodes.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// Bandwidth in bytes/second; 0 means unlimited. Transmission time
	// (size/bandwidth) is added to the propagation delay and serialises
	// back-to-back messages on the same link.
	Bandwidth int
	// Loss is the probability in [0,1] that a message silently vanishes.
	Loss float64
	// Down marks the link administratively down: sends fail with
	// ErrLinkDown.
	Down bool
}

// Config configures a Network.
type Config struct {
	// Seed feeds the deterministic random source. Zero means seed 1.
	Seed int64
	// DefaultLink is used for node pairs without an explicit SetLink.
	DefaultLink Link
}

// Errors returned by Send.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrNodeClosed  = errors.New("netsim: node closed")
	ErrNetClosed   = errors.New("netsim: network closed")
	ErrLinkDown    = errors.New("netsim: link down")
	ErrFirewalled  = errors.New("netsim: destination firewalled")
	ErrDuplicate   = errors.New("netsim: node name in use")
)

// Handler consumes messages delivered to a node. Handlers for one node
// run serially in FIFO order; handlers of different nodes run
// concurrently.
type Handler func(from string, data []byte)

type pairKey struct{ from, to string }

// Network is a simulated WAN.
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      Config
	nodes    map[string]*Node
	links    map[pairKey]Link
	lastAt   map[pairKey]time.Time
	linkFree map[pairKey]time.Time // when the pair's link finishes its current transmission
	nodeFree map[string]time.Time  // when the node finishes processing its current delivery
	nodeFrom map[string]string     // last sender whose delivery the node processed
	flows    map[pairKey]struct{}  // outbound flows opened by firewalled nodes
	seq      uint64
	inflight int
	idle     *sync.Cond
	events   eventHeap
	wake     chan struct{}
	closed   bool
	done     chan struct{}
}

// New creates a network and starts its delivery scheduler.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Network{
		rng:      rand.New(rand.NewSource(seed)),
		cfg:      cfg,
		nodes:    make(map[string]*Node),
		links:    make(map[pairKey]Link),
		lastAt:   make(map[pairKey]time.Time),
		linkFree: make(map[pairKey]time.Time),
		nodeFree: make(map[string]time.Time),
		nodeFrom: make(map[string]string),
		flows:    make(map[pairKey]struct{}),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	n.idle = sync.NewCond(&n.mu)
	go n.run()
	return n
}

// NodeOption customises AddNode.
type NodeOption func(*Node)

// WithFirewall marks the node as refusing unsolicited inbound messages.
// Peers it has previously sent to may respond (the outbound flow punches
// the hole): a firewalled edge is reached by the rendezvous it leases
// with and by nobody else.
func WithFirewall() NodeOption {
	return func(nd *Node) { nd.firewalled = true }
}

// WithProcessing models receiver-side cost: every message delivered to
// the node occupies it for perMsg plus size/bytesPerSec (0 disables the
// size-dependent part). Deliveries to the node serialise behind this
// cost, so a flooded receiver saturates — the behaviour the paper's
// subscriber-throughput experiment exhibits on 2001 hardware.
func WithProcessing(perMsg time.Duration, bytesPerSec int) NodeOption {
	return func(nd *Node) {
		nd.procPerMsg = perMsg
		nd.procBandwidth = bytesPerSec
	}
}

// WithSwitchPenalty adds an extra processing cost whenever a delivery
// comes from a different sender than the previous one: the
// per-connection overhead (thread switches, buffer churn) that made a
// multi-publisher flood collapse a 2001-era receiver's total rate.
func WithSwitchPenalty(d time.Duration) NodeOption {
	return func(nd *Node) { nd.procSwitch = d }
}

// AddNode creates a node. Names must be unique for the life of the
// network; a closed node's name may be reused (peer restart).
func (n *Network) AddNode(name string, opts ...NodeOption) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetClosed
	}
	if old, ok := n.nodes[name]; ok && !old.closed {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	nd := &Node{name: name, net: n}
	nd.cond = sync.NewCond(&nd.mu)
	for _, opt := range opts {
		opt(nd)
	}
	n.nodes[name] = nd
	go nd.dispatch()
	return nd, nil
}

// SetLink installs a directional link override from → to.
func (n *Network) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pairKey{from, to}] = l
}

func (n *Network) linkFor(from, to string) Link {
	if l, ok := n.links[pairKey{from, to}]; ok {
		return l
	}
	return n.cfg.DefaultLink
}

// WaitQuiesce blocks until no messages are in flight (scheduled, queued
// or being handled) or the timeout elapses. It reports whether the
// network went idle.
func (n *Network) WaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		n.mu.Lock()
		n.idle.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.inflight != 0 {
		if time.Now().After(deadline) {
			return false
		}
		n.idle.Wait()
	}
	return true
}

// Close shuts the network down. Pending messages are discarded.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*Node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	close(n.done)
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.Close()
	}
}

// event is a scheduled delivery.
type event struct {
	at   time.Time
	seq  uint64
	dst  *Node
	from string
	data []byte
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// run is the delivery scheduler: a single goroutine that pops due events
// in (time, sequence) order and hands them to the destination mailboxes.
func (n *Network) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		for len(n.events) == 0 {
			n.mu.Unlock()
			select {
			case <-n.wake:
			case <-n.done:
				return
			}
			n.mu.Lock()
		}
		next := n.events.peek()
		now := time.Now()
		if next.at.After(now) {
			wait := next.at.Sub(now)
			n.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-n.wake:
			case <-n.done:
				return
			}
			continue
		}
		e := heap.Pop(&n.events).(event)
		n.mu.Unlock()
		e.dst.enqueue(e.from, e.data)
	}
}

func (n *Network) schedule(e event) {
	heap.Push(&n.events, e)
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// finishOne decrements the in-flight counter. Callers hold n.mu or call
// via the locked helpers.
func (n *Network) finishOneLocked() {
	n.inflight--
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
}

func (n *Network) finishOne() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.finishOneLocked()
}
