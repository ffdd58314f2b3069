// Package rendezvous implements JXTA rendezvous peers and their clients.
//
// Rendezvous (rdv) peers keep track of connected peers and bridge
// sub-networks: edge peers hold a renewable lease with one or more
// rendezvous, and messages propagated into the mesh fan out from
// rendezvous to their connected peers and on to neighbouring rendezvous,
// with TTL, path stamping and a duplicate cache suppressing loops.
//
// The TPS engine rides on Propagate; so do the baselines' discovery and
// wire services.
//
// A peer runs one Service, whatever groups it is in: its lease tables,
// its failure detector, its duplicate cache and its maintenance loop are
// the peer's, not a group's. A group is a lease on it, keyed by (peer,
// group): an edge leases each group it joins (Join, Leave) with its
// seeds, and a rendezvous leases "" with its own seeds, which carries
// every group. Each lease a rendezvous starts is an epoch, named in
// every grant of it, so an edge tells a new lease from a renewal however
// many grants were lost.
//
// The control plane — the lease tables, seed election and the failure
// detector — is one pure state machine, the core (core.go): step(now,
// input) returns outputs, and the core holds no lock, reads no clock,
// starts no goroutine and touches no endpoint. The Service is its driver
// (lease.go): it decodes a frame or a call into an input, steps under
// s.mu, and carries the outputs out after letting go — control frames,
// lease listeners, wake-ups — feeding back the result of each connect
// round and of each probe, fan-out and digest send. The core keeps the
// fan-out's per-group target list up to date, so the per-message path
// (propagate.go) reads it without scanning the tables. A log server
// (logserver.go, sync.go) exists on rendezvous peers with an event log
// alone: an edge peer never constructs one, so replay and sync ops
// addressed to it are dropped at dispatch.
package rendezvous

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// ServiceName is the endpoint service name of the rendezvous protocol.
const ServiceName = "jxta.rdv"

// Message element names, namespace "rdv". Numeric elements (Seed, Lease,
// Epoch and the replay/sync fields in replay.go and sync.go) are 8-byte
// big-endian (message.AddUint64); an op whose numeric element is absent
// or of any other length is dropped.
const (
	elemNS     = "rdv"
	elemOp     = "Op"
	elemDSvc   = "DSvc"
	elemDParam = "DParam"
	// elemLease carries the granted lease duration in milliseconds.
	elemLease = "Lease"
	// elemEpoch carries the lease epoch a grant belongs to: drawn by the
	// granting side for each lease it starts, different across its
	// restarts, the same on every renewal.
	elemEpoch = "Epoch"
	// elemSeed names the seed a connect was sent to, by its place in
	// the connecting peer's Seeds counted from 1; the grant that answers
	// the connect echoes it. It is how a peer tells which of its seeds a
	// grant comes from, whatever address the rendezvous reports.
	elemSeed = "Seed"
)

// Operations.
const (
	opConnect    = "connect"
	opLease      = "lease"
	opDisconnect = "disconnect"
	opProp       = "prop"
	opPing       = "ping"
	opPong       = "pong"
)

// Role of a peer in the rendezvous protocol.
type Role int

// Roles. Edge peers lease into the mesh; rendezvous peers form it.
const (
	RoleEdge Role = iota + 1
	RoleRendezvous
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleEdge:
		return "edge"
	case RoleRendezvous:
		return "rendezvous"
	default:
		return "role(?)"
	}
}

// Endpoint is the slice of the endpoint service the rendezvous protocol
// needs: sending, local delivery and handler registration. The frame
// methods let fanOut marshal a propagated message once and send the same
// bytes to every target instead of re-enveloping per peer.
type Endpoint interface {
	endpoint.Sender
	EncodeFrame(svc, param string, msg *message.Message, envelope ...message.Field) ([]byte, error)
	SendFrame(to endpoint.Address, frame []byte) error
	DeliverLocal(svc, param string, msg *message.Message, from endpoint.Address) error
	RegisterHandler(svc, param string, h endpoint.Handler) error
	UnregisterHandler(svc, param string)
}

// Config configures a peer's rendezvous service. It is the only
// declaration of these knobs: the layers above (peer, tps) carry a
// Config whole instead of re-declaring its fields.
type Config struct {
	// Role selects edge or rendezvous behaviour.
	Role Role
	// Seeds are addresses of rendezvous peers to connect to. Edge peers
	// need at least one to reach beyond their own process; rendezvous
	// peers use seeds to form a mesh with other rendezvous.
	Seeds []endpoint.Address
	// LeaseTTL is how long a granted lease lasts. Clients renew at a
	// third of the TTL. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Clock substitutes the time source (tests). Nil means time.Now.
	Clock func() time.Time
	// SuspectAfter is the number of consecutive send failures after
	// which a peer is marked suspect and probed with a ping. Zero means
	// DefaultSuspectAfter.
	SuspectAfter int
	// EvictAfter is the number of consecutive send failures after which
	// a peer is evicted from the connection tables and its address
	// breaker opens for one LeaseTTL — the time after which the peer's
	// leases would have lapsed anyway. Zero means DefaultEvictAfter.
	EvictAfter int
	// Log, when set on a rendezvous-role service, makes propagation
	// durable: every message this peer fans out is appended to the
	// per-topic log first (stamped with its sequence number), and replay
	// requests from reconnecting subscribers are served from it. Nil —
	// the default — leaves the fire-and-forget hot path untouched.
	Log *eventlog.Log
	// Tracer, when set, archives a forward-stage hop record for every
	// propagated message that carries a trace element (stamped by the
	// publishing engine for sampled events). Untraced messages pay one
	// allocation-free element probe; nil skips even that.
	Tracer *trace.Store
	// ReplicaSeeds are the addresses of the other rendezvous in this
	// peer's replica set. A rendezvous-role service with a Log and
	// replica seeds runs the anti-entropy sync loop (sync.go): it
	// exchanges per-topic log digests with the replicas and pulls the
	// suffixes it is missing, so any one replica can serve another's
	// retained history after a crash. Replicas are not mesh-seeded with
	// each other; anti-entropy is the only replication path.
	ReplicaSeeds []endpoint.Address
	// SyncInterval is the anti-entropy digest cadence. Zero means
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// ActiveStandby switches seed handling from "lease with every seed"
	// to "lease with exactly one": the active, initially Seeds[0], with
	// the rest as standbys. When the failure detector declares the
	// active dead (eviction breaker open, or EvictAfter consecutive
	// connect failures), the client re-leases against the next healthy
	// standby on the seed backoff curve and the engine's cursor
	// machinery replays the handover gap from the new replica. All
	// clients of a replica set must list the seeds in the same order so
	// they converge on the same active.
	ActiveStandby bool
}

// DefaultLeaseTTL is the lease duration granted by rendezvous peers.
const DefaultLeaseTTL = 30 * time.Second

// Failure-detection defaults.
const (
	DefaultSuspectAfter = 2
	DefaultEvictAfter   = 4
)

// normalise replaces every zero-means-default field with its default,
// so the rest of the package reads cfg without re-deriving them.
func (c *Config) normalise() {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = DefaultEvictAfter
	}
	if c.EvictAfter <= c.SuspectAfter {
		c.EvictAfter = c.SuspectAfter + 1
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
}

// ErrNoPeers is returned by Propagate when no rendezvous or clients are
// connected, meaning the message reached nobody.
var ErrNoPeers = errors.New("rendezvous: no connected peers")

// ErrAllSendsFailed is returned by Propagate when peers were connected
// but every send to them failed: the message reached nobody, and unlike
// ErrNoPeers the mesh thinks it exists — a partition or mass failure.
var ErrAllSendsFailed = errors.New("rendezvous: all sends failed")

// Service is one peer's rendezvous protocol instance, for every group
// the peer is in.
type Service struct {
	ep    Endpoint
	cfg   Config // normalised by New
	seen  *seen.Cache
	stats rdvCounters

	// logs is the log server: nil unless the peer is a rendezvous with
	// an event log.
	logs *logServer

	// mu guards the control core — the lease tables, the seed client's
	// state and the failure detector — and the listener maps.
	mu   sync.Mutex
	c    *core
	conn *sync.Cond // signals lease and seed-failure changes

	// leaseFns hear of every new lease epoch, gapFns of every gap
	// signal; both lazily allocated, under mu, keyed by the token their
	// Add method returned.
	leaseFns  map[int]LeaseListener
	gapFns    map[int]GapListener
	nextToken int

	wg   sync.WaitGroup
	stop chan struct{}
}

// New creates and starts the peer's rendezvous service: it registers the
// protocol handler, for every group, and starts the loops its parts need
// — lease maintenance and suspect probing, anti-entropy sync. An edge
// leases nothing until it joins a group; a rendezvous leases "" with its
// seeds from the start.
func New(ep Endpoint, cfg Config) (*Service, error) {
	if cfg.Role != RoleEdge && cfg.Role != RoleRendezvous {
		return nil, fmt.Errorf("rendezvous: invalid role %d", cfg.Role)
	}
	cfg.normalise()
	s := &Service{
		ep:   ep,
		cfg:  cfg,
		seen: seen.New(),
		stop: make(chan struct{}),
	}
	s.c = newCore(&s.cfg, rand.Uint64())
	s.conn = sync.NewCond(&s.mu)
	if cfg.Role == RoleRendezvous && cfg.Log != nil {
		s.logs = newLogServer(s)
	}
	if err := ep.RegisterHandler(ServiceName, "", s.handle); err != nil {
		return nil, fmt.Errorf("rendezvous: register handler: %w", err)
	}
	// Seeded peers maintain leases; rendezvous additionally probe their
	// suspects even when they have no seeds of their own.
	if len(cfg.Seeds) > 0 || cfg.Role == RoleRendezvous {
		s.wg.Add(1)
		go s.maintainLoop()
	}
	if s.logs != nil && len(cfg.ReplicaSeeds) > 0 {
		s.wg.Add(1)
		go s.logs.syncLoop()
	}
	return s, nil
}

// Config returns the service's configuration with every default filled
// in. The engine's replay loop reads ActiveStandby from it to decide
// whether foreign-origin cursors are worth presenting (only a failover
// client ever re-homes to a replica serving a dead origin's copy), and
// readiness checks read Seeds: unseeded peers never hold leases and rely
// on loopback only.
func (s *Service) Config() Config { return s.cfg }

func (s *Service) now() time.Time { return s.cfg.Clock() }

// Close stops lease maintenance, tells our rendezvous we are leaving,
// one lease at a time, and unregisters the handler.
func (s *Service) Close() {
	s.mu.Lock()
	if s.c.closed {
		s.mu.Unlock()
		return
	}
	outs := s.c.step(s.now(), input{kind: inClose}, nil)
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	perform(outs, s.send, nil, nil)
	s.ep.UnregisterHandler(ServiceName, "")
}

// newOp starts a control message of this peer carrying the op element,
// with room for the extra elements the caller is about to append.
func (s *Service) newOp(op string, extra int) *message.Message {
	m := message.New(s.ep.PeerID())
	m.Grow(1 + extra)
	m.AddString(elemNS, elemOp, op)
	return m
}

// sendCounted sends a control message that belongs to no group and
// counts a transport rejection as a send failure.
func (s *Service) sendCounted(to endpoint.Address, m *message.Message) error {
	err := s.ep.Send(to, ServiceName, "", m)
	if err != nil {
		s.stats.sendFailures.Add(1)
	}
	return err
}

// handle processes rendezvous protocol messages. Replay and sync ops
// are served by the log server; a peer without one drops them.
func (s *Service) handle(msg *message.Message, from endpoint.Address) {
	var in input
	var ok bool
	switch msg.Text(elemNS, elemOp) {
	case opConnect:
		if in.seed, ok = msg.Uint64(elemNS, elemSeed); ok {
			in.kind = inConnect
		}
	case opLease:
		var okLease, okEpoch bool
		in.seed, ok = msg.Uint64(elemNS, elemSeed)
		in.lease, okLease = msg.Uint64(elemNS, elemLease)
		in.epoch, okEpoch = msg.Uint64(elemNS, elemEpoch)
		if ok && okLease && okEpoch && in.lease > 0 {
			in.kind = inGrant
		}
	case opDisconnect:
		in.kind = inDisconnect
	case opPong:
		// The suspect is alive.
		in.kind = inPong
	case opProp:
		s.handleProp(msg, from)
	case opPing:
		// Any role answers: probing works edge→rendezvous and
		// rendezvous→client alike.
		_ = s.ep.Send(from, ServiceName, groupOf(msg), s.newOp(opPong, 0))
	case opGap:
		s.handleGap(msg)
	case opReplay:
		if s.logs != nil {
			s.logs.handleReplay(msg, from)
		}
	case opSyncDigest:
		if s.logs != nil {
			s.logs.handleSyncDigest(msg, from)
		}
	case opSyncPull:
		if s.logs != nil {
			s.logs.handleSyncPull(msg, from)
		}
	case opSyncRec:
		if s.logs != nil {
			s.logs.handleSyncRec(msg, from)
		}
	}
	if in.kind != 0 {
		in.from, in.src, in.group = from, msg.Src, groupOf(msg)
		s.apply(s.now(), in)
	}
}

// groupOf recovers the group a message was addressed to on this hop: the
// endpoint parameter the sender gave it, "" for every group.
func groupOf(msg *message.Message) string {
	_, param, _ := endpoint.Destination(msg)
	return param
}

// maintainLoop ticks the core at a third of the TTL: it renews leases
// with the seed rendezvous (backing off per unreachable seed), probes
// suspect peers and expires lapsed leases.
func (s *Service) maintainLoop() {
	defer s.wg.Done()
	interval := s.cfg.LeaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		s.apply(s.now(), input{kind: inTick})
		select {
		case <-ticker.C:
		case <-s.stop:
			return
		}
	}
}
