// Package tps is a Go implementation of Type-based Publish/Subscribe
// (TPS) over a JXTA-style peer-to-peer substrate, reproducing
// S. Baehni, P. Th. Eugster and R. Guerraoui, "OS Support for P2P
// Programming: a Case for TPS" (ICDCS 2002).
//
// TPS is to P2P programming what RPC was to client/server programming:
// a high-level abstraction that hides the substrate (peer groups,
// rendezvous leases, propagated pipes) while preserving type
// safety and encapsulation — without giving up the time, space and flow
// decoupling that publish/subscribe provides. The subject of a
// subscription is an event type: subscribing to a type delivers every
// published instance of that type and of its subtypes (Go interfaces
// play the role of Java supertypes), and the event's own methods can be
// used for content-based filtering.
//
// # Programming model (the paper's four phases, §4.2)
//
// Type definition — declare the event type and register it:
//
//	type SkiRental struct {
//		Shop         string
//		Brand        string
//		Price        float64
//		NumberOfDays float64
//	}
//	tps.Register[SkiRental](platform)
//
// Initialization — create the engine and its interface:
//
//	engine, _ := tps.NewEngine[SkiRental](platform)
//	intf, _ := engine.NewInterface()
//
// Subscription:
//
//	intf.Subscribe(tps.CallBackFunc[SkiRental](func(r SkiRental) error {
//		fmt.Println("skis that could be rented:", r)
//		return nil
//	}), nil)
//
// Publication:
//
//	intf.Publish(SkiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100})
//
// Create an engine per unrelated type of interest, as the paper
// prescribes. An engine is a typed view of the platform's one runtime:
// engines whose hierarchies overlap share the groups of their common
// types, and a type's group stays joined until the platform closes.
package tps

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/admin"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// Transport is a pluggable network transport. The TCP transport is
// configured via Config.ListenTCP; simulations and tests inject others
// (e.g. the in-memory WAN) through WithTransport.
type Transport = endpoint.Transport

// PSError wraps every error the TPS API returns — the analogue of the
// paper's PSException.
type PSError struct {
	// Op is the API operation that failed ("publish", "subscribe", ...).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *PSError) Error() string { return "tps: " + e.Op + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *PSError) Unwrap() error { return e.Err }

func psErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return &PSError{Op: op, Err: err}
}

// Config configures a Platform.
type Config struct {
	// Name is the peer's human-readable name.
	Name string
	// ListenTCP, when non-empty (e.g. "0.0.0.0:9701"), starts the TCP
	// transport on that address. Every send dials its destination, so
	// the rendezvous must be able to connect to it: a peer that cannot
	// accept connections is unreachable, and no option changes that
	// (ROBUSTNESS.md, "Firewalled peers").
	ListenTCP string
	// Seeds are rendezvous addresses ("tcp://host:port", "mem://node").
	Seeds []string
	// Rendezvous makes this peer a rendezvous: its rendezvous service
	// serves every event group — the ones this peer publishes or
	// subscribes in too — in addition to its normal duties.
	Rendezvous bool
	// Codec names the event serialisation, which is gob on every peer
	// (the common type model of §3.2): "" and "gob" are accepted, any
	// other value is refused. The field stays for configurations that
	// name it.
	Codec string
	// FindTimeout is accepted and ignored. It bounded the search for a
	// type's advertisement, and a type's group is computed from its name
	// now; the field stays until bench/cluster.go stops setting it.
	FindTimeout time.Duration
	// FindInterval is the replay loop's tick (default 1s): it asks again
	// for a replay window whose cursor has stalled since the last tick —
	// a request that could not be sent, or a request, answer or event
	// lost on the way. Nothing on the join or catch-up path waits for it.
	FindInterval time.Duration
	// LeaseTTL overrides the rendezvous lease duration.
	LeaseTTL time.Duration
	// AdminAddr, when non-empty (e.g. "127.0.0.1:7700" or
	// "127.0.0.1:0"), serves the embedded HTTP/JSON admin surface on
	// that address: GET /stats, /metrics (Prometheus text exposition),
	// /inspect, /health and /trace (see OBSERVABILITY.md). Off by default. The server carries no
	// authentication — bind loopback unless the network is trusted.
	AdminAddr string
	// LogDir, when non-empty, opens a durable per-topic event log in
	// that directory. Rendezvous peers append every event they propagate
	// (one topic per event group; the net group is not logged) and
	// serve late-joiner catch-up / reconnect redelivery from it; the
	// receiving peer's dedupe cache, on the message ID a replay keeps,
	// turns the at-least-once replay into exactly-once observable
	// delivery. The directory also keeps the peer's identity (peer.id),
	// so a platform restarted on it is the peer its subscribers' cursors
	// and its replicas' copies name. Off by default — the
	// fire-and-forget hot path is untouched without it.
	LogDir string
	// LogRetention bounds the event log; zero fields take the defaults
	// (1 MiB segments, 64 MiB per topic, no age limit).
	LogRetention LogRetention
	// LogSync selects the log fsync policy: "" or "none" (OS decides),
	// "roll" (fsync sealed segments), "always" (fsync every append).
	LogSync string
	// ReplicaSeeds are the addresses of the other rendezvous in this
	// peer's replica set. A Rendezvous peer with a LogDir and
	// replica seeds anti-entropy-syncs its per-topic event logs against
	// them — exchanging digests every ReplicaSyncInterval and pulling
	// missing suffixes — so a topic's retained history survives the
	// crash of any single replica. See ROBUSTNESS.md, Replication.
	ReplicaSeeds []string
	// ReplicaSyncInterval is the anti-entropy digest cadence (default
	// 5s).
	ReplicaSyncInterval time.Duration
	// Failover switches this peer's rendezvous leases from "lease with
	// every seed" to active/standby: lease with exactly one seed and
	// re-lease against the next when the failure detector declares the
	// active dead — one election for every group — replaying the
	// handover gap from the new replica's copied logs. All clients of a
	// replica set must list Seeds in the same order so they converge on
	// the same active.
	Failover bool
	// TraceRate samples events for end-to-end hop tracing: each event
	// whose ID hashes under the rate gets a trace element stamped at
	// publish and a hop recorded at every peer it crosses (publish,
	// rendezvous forward, delivery). The decision is a deterministic
	// function of the event ID, so every peer traces the same events
	// without coordination. 0 (the default) disables tracing and leaves
	// the publish hot path byte-identical; 1 traces everything. Traced
	// hops are served on the admin endpoint under /trace.
	TraceRate float64
	// AdminProfiling mounts net/http/pprof on the admin mux (GET
	// /debug/pprof/...). Off by default: profiles expose memory contents
	// and cost CPU to capture — enable only on loopback-bound admin
	// addresses or trusted networks.
	AdminProfiling bool
}

// LogRetention bounds the durable event log per topic.
type LogRetention struct {
	// SegmentBytes caps one log segment before rolling to the next.
	SegmentBytes int64
	// MaxBytes caps the retained bytes per topic; oldest sealed
	// segments are deleted first.
	MaxBytes int64
	// MaxAge drops sealed segments whose newest entry is older.
	MaxAge time.Duration
}

// Option customises NewPlatform.
type Option func(*platformOptions)

type platformOptions struct {
	transports []Transport
}

// WithTransport attaches an additional transport (simulated WANs, test
// fabrics).
func WithTransport(t Transport) Option {
	return func(o *platformOptions) { o.transports = append(o.transports, t) }
}

// Platform is the per-process TPS runtime: one JXTA peer, one type
// registry and one core engine, which every Engine created on the
// platform is a view of.
type Platform struct {
	peer *peer.Peer
	// isRendezvous records that the peer has the rendezvous role.
	isRendezvous bool
	eng          *engine.Engine
	// tracer is the peer-local hop store: the engine records publish and
	// deliver hops into it, the rendezvous service forward hops.
	tracer *trace.Store

	// Observability: the stats registry every subsystem snapshots into,
	// and the optional embedded admin server reading from it.
	obsreg *obs.Registry
	admin  *admin.Server
	log    *eventlog.Log
}

// NewPlatform boots the peer-to-peer substrate: transports, the peer's
// one rendezvous service, which serves every event group on a
// rendezvous, and the engine.
func NewPlatform(cfg Config, opts ...Option) (*Platform, error) {
	if c := defaultStr(cfg.Codec, "gob"); c != "gob" {
		return nil, psErr("platform", fmt.Errorf("codec %q: events are gob-encoded", c))
	}
	var po platformOptions
	for _, opt := range opts {
		opt(&po)
	}
	transports := po.transports
	if cfg.ListenTCP != "" {
		t, err := tcpnet.Listen(cfg.ListenTCP)
		if err != nil {
			return nil, psErr("platform", err)
		}
		transports = append(transports, t)
	}
	if len(transports) == 0 {
		return nil, psErr("platform", errors.New("no transports: set ListenTCP or use WithTransport"))
	}
	var elog *eventlog.Log
	var id jid.ID // zero: a fresh identity
	if cfg.LogDir != "" {
		policy, err := eventlog.ParseSyncPolicy(cfg.LogSync)
		if err != nil {
			return nil, psErr("platform", err)
		}
		elog, err = eventlog.Open(eventlog.Config{
			Dir:       cfg.LogDir,
			Retention: eventlog.Retention(cfg.LogRetention),
			Sync:      policy,
		})
		if err != nil {
			return nil, psErr("platform", err)
		}
		if id, err = logOwner(cfg.LogDir); err != nil {
			_ = elog.Close()
			return nil, psErr("platform", err)
		}
	}
	tracer := trace.NewStore(trace.DefaultMaxEvents)
	// The configuration of the peer's one rendezvous service.
	rcfg := rendezvous.Config{
		Role:          rendezvous.RoleEdge,
		Seeds:         addresses(cfg.Seeds),
		LeaseTTL:      cfg.LeaseTTL,
		Log:           elog,
		Tracer:        tracer,
		ReplicaSeeds:  addresses(cfg.ReplicaSeeds),
		SyncInterval:  cfg.ReplicaSyncInterval,
		ActiveStandby: cfg.Failover,
	}
	if cfg.Rendezvous {
		rcfg.Role = rendezvous.RoleRendezvous
	}
	p, err := peer.New(peer.Config{Name: cfg.Name, ID: id, Rendezvous: rcfg}, transports...)
	if err != nil {
		if elog != nil {
			_ = elog.Close()
		}
		return nil, psErr("platform", err)
	}
	eng, err := engine.New(engine.Config{
		Peer:         p,
		Registry:     typereg.New(),
		FindInterval: cfg.FindInterval,
		Tracer:       tracer,
		TraceRate:    cfg.TraceRate,
	})
	if err != nil {
		p.Close()
		if elog != nil {
			_ = elog.Close()
		}
		return nil, psErr("platform", err)
	}
	pl := &Platform{
		peer:         p,
		isRendezvous: cfg.Rendezvous,
		eng:          eng,
		tracer:       tracer,
		obsreg:       obs.NewRegistry(),
		log:          elog,
	}
	pl.registerProviders(transports)
	if cfg.AdminAddr != "" {
		srv, err := admin.New(admin.Config{
			Addr:      cfg.AdminAddr,
			Registry:  pl.obsreg,
			Inspect:   pl.Inspect,
			Health:    pl.health,
			Trace:     pl.tracer,
			Profiling: cfg.AdminProfiling,
		})
		if err != nil {
			pl.Close()
			return nil, psErr("platform", err)
		}
		pl.admin = srv
	}
	return pl, nil
}

// registerProviders wires the instrumented subsystems into the stats
// registry, and every attached transport that counts (tcpnet does,
// under "tcpnet") beside them. Providers are evaluated at Collect time;
// the per-message hot paths are untouched (they keep bumping the same
// atomic counters and pay nothing until a collect).
func (p *Platform) registerProviders(transports []Transport) {
	r := p.obsreg
	r.RegisterFunc("endpoint", func() obs.Snapshot {
		return p.peer.Endpoint().Snapshot()
	})
	for _, t := range transports {
		if counted, ok := t.(obs.Provider); ok {
			r.Register(counted.Snapshot().Name, counted)
		}
	}
	r.Register("engine", p.eng)
	r.Register("rendezvous", p.peer.Rendezvous())
	// The peer's one duplicate check: the rendezvous service's hop
	// filter, over the numbered message IDs an event's ID is.
	r.Register("seen", p.peer.Rendezvous().HopFilter())
	if p.log != nil {
		r.RegisterFunc("eventlog", func() obs.Snapshot { return p.log.Snapshot() })
	}
}

// peerIDFile, in a log directory, names the peer the log belongs to.
const peerIDFile = "peer.id"

// logOwner returns the identity kept in a log directory, writing a
// fresh one on first use. A log numbers its entries as one origin:
// subscribers hold cursors and replicas hold copies under that ID, so a
// rendezvous that reopens the directory has to come back as the peer
// that wrote it or its retained history answers to nobody's cursor.
func logOwner(dir string) (jid.ID, error) {
	path := filepath.Join(dir, peerIDFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		id, err := jid.Parse(strings.TrimSpace(string(raw)))
		if err != nil {
			return jid.Nil, fmt.Errorf("%s: %w", path, err)
		}
		return id, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return jid.Nil, err
	}
	// Written beside and renamed into place: a crash leaves the whole
	// file or none, never one that fails the next boot.
	id := jid.NewPeer()
	if err := os.WriteFile(path+".tmp", []byte(id.String()+"\n"), 0o644); err != nil {
		return jid.Nil, err
	}
	return id, os.Rename(path+".tmp", path)
}

// addresses converts configured address strings to endpoint addresses.
func addresses(ss []string) []endpoint.Address {
	out := make([]endpoint.Address, len(ss))
	for i, s := range ss {
		out[i] = endpoint.Address(s)
	}
	return out
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// PeerID returns the peer's identity in URN form.
func (p *Platform) PeerID() string { return p.peer.ID().String() }

// Addresses returns the peer's reachable addresses, best first.
func (p *Platform) Addresses() []string {
	addrs := p.peer.Addresses()
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = string(a)
	}
	return out
}

// AwaitRendezvous blocks until the peer holds a rendezvous lease for the
// net group, or the timeout elapses. Peers configured without seeds
// report false.
func (p *Platform) AwaitRendezvous(timeout time.Duration) bool {
	return p.peer.Rendezvous().AwaitConnected(jid.NetGroup.String(), timeout)
}

// StatsView is the coherent multi-subsystem metrics view Platform.Stats
// returns and the admin surface serves on GET /stats: one snapshot per
// instrumented subsystem (engine, endpoint, tcpnet, rendezvous, seen)
// plus per-second rates derived between calls. See OBSERVABILITY.md for
// the schema.
type StatsView = obs.View

// StatsSnapshot is one subsystem's named counters and gauges inside a
// StatsView.
type StatsSnapshot = obs.Snapshot

// Inspection is the structural self-description Platform.Inspect
// returns: connected peers with failure-detector state, the live
// subscription table, and the registered type catalog.
type Inspection = obs.Inspection

// PeerEntry is one remote peer (or configured seed) in an Inspection.
type PeerEntry = obs.PeerEntry

// SubscriptionEntry is one subscribed type root in an Inspection.
type SubscriptionEntry = obs.SubscriptionEntry

// Stats collects a point-in-time view of every instrumented subsystem.
// It is safe to call at any time, concurrently with publishing and
// delivery: subsystems count on atomic counters, and collection adds
// nothing to the publish→deliver hot path.
func (p *Platform) Stats() StatsView { return p.obsreg.Collect() }

// Inspect reports the peer's structure: identity, connected peers and
// their failure-detector state, live subscriptions, registered types.
func (p *Platform) Inspect() Inspection {
	in := Inspection{
		Schema:     obs.SchemaVersion,
		PeerID:     p.PeerID(),
		Name:       p.peer.Name(),
		Addresses:  p.Addresses(),
		Rendezvous: p.isRendezvous,
	}
	rdv := p.peer.Rendezvous()
	in.Peers = rdv.PeersView()
	in.Replicas = rdv.ReplicasView()
	in.Subscriptions = p.eng.SubscriptionsView()
	in.Cursors = p.eng.CursorsView()
	if p.log != nil {
		in.EventLog = p.log.TopicsView()
	}
	in.Types = p.eng.Registry().Paths()
	return in
}

// AdminAddr returns the bound address of the embedded admin server, or
// "" when Config.AdminAddr was empty. With ":0" configured this is how
// the ephemeral port is discovered.
func (p *Platform) AdminAddr() string {
	if p.admin == nil {
		return ""
	}
	return p.admin.Addr()
}

// health is the admin /health source: a seeded peer that holds no
// rendezvous lease for the net group (what AwaitRendezvous would time
// out on) is degraded; unseeded peers and rendezvous are healthy while
// running. A peer whose event log is failing appends or fsyncs is
// degraded with the I/O error as the reason — a dying disk becomes
// visible here (and in tps_eventlog_io_errors_total) before it becomes
// data loss. The log error is sticky until an append succeeds again.
func (p *Platform) health() error {
	if p.peer.Closed() {
		return errors.New("platform closed")
	}
	rdv := p.peer.Rendezvous()
	if len(rdv.Config().Seeds) > 0 && len(rdv.ConnectedRendezvous(jid.NetGroup.String())) == 0 {
		return errors.New("no rendezvous lease held")
	}
	if p.log != nil {
		if err := p.log.Err(); err != nil {
			return fmt.Errorf("event log failing: %w", err)
		}
	}
	return nil
}

// Close shuts the platform down: the admin server first (so /stats
// never reads a half-closed substrate), then the engine — its replay
// loop must not outlive the peer, and the groups its engines joined are
// left here, not when an engine closes — the peer with its services,
// and the transports. Engines still open refuse work from here on.
func (p *Platform) Close() {
	if p.admin != nil {
		_ = p.admin.Close()
		p.admin = nil
	}
	p.eng.Close()
	p.peer.Close()
	if p.log != nil {
		_ = p.log.Close()
		p.log = nil
	}
}

// Register adds T to the platform's type registry as a hierarchy root.
// Registration is the paper's "type definition phase": peers must agree
// on the type model a priori (§3.2).
func Register[T any](p *Platform) error {
	_, err := p.eng.Registry().Register(typeOf[T](), nil)
	return psErr("register", err)
}

// RegisterSub adds T as a subtype of Parent: subscriptions to Parent
// also deliver T instances (Figure 7). Parent must be registered first.
// For the delivered values to be visible through a Parent-typed
// interface, Parent should be a Go interface type that T implements;
// struct parents still organise the subject hierarchy. A subscription to
// Parent made before this call covers T from here on.
func RegisterSub[T, Parent any](p *Platform) error {
	parent, ok := p.eng.Registry().NodeByType(typeOf[Parent]())
	if !ok {
		return psErr("register", fmt.Errorf("%w: parent %v", typereg.ErrNotRegistered, typeOf[Parent]()))
	}
	_, err := p.eng.Registry().Register(typeOf[T](), parent)
	return psErr("register", err)
}

// typeOf yields the reflect.Type of T, working for interface types too.
func typeOf[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}
