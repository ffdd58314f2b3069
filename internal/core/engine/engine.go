// Package engine implements the TPS engine over the JXTA substrate —
// the paper's §3.4 architecture.
//
// The engine is built from the blocks of Figure 10:
//
//   - TPSEngine (this type): collects publications and subscriptions and
//     dispatches them to the other blocks;
//   - Interface Repository (subscriptions.go): stores callback objects
//     and exception handlers and starts/stops subscriptions;
//   - Connections (attach.go): registers the reader of the type's peer
//     group with the endpoint, leases the group on the peer's rendezvous
//     service and propagates into it.
//
// Where this departs from the paper. Figure 10's fourth block,
// Advertisements — the creator of Figure 15 and the finder of Figure 16
// — is not here. In JXTA a group had no name but its advertisement, so
// §4.1 has every publisher and subscriber search for the type's
// advertisement "for a specific amount of time" and create one when
// none turns up. That search made every first use of a type wait, let
// two peers that searched at once create two groups for one type (which
// every publish then had to reach, and every subscriber to dedupe), and
// made a logged history unreachable once no live cache held the
// advertisement naming its group. Here a type's group is computed from
// the type's name (TypeGroup): every peer arrives at the same group
// without asking anyone, so there is one group per type, the engine
// joins it at once, and nothing it runs queries, caches or publishes an
// advertisement. The search the paper needed survives where the paper
// counts it: in the hand-written baseline, SR-JXTA. A subscription
// covers the subtypes registered after it through the registry's
// listener, where the finder re-scanned its cache every round.
//
// Nor are the paper's wire pipes. In JXTA a pipe, too, was found by its
// advertisement; with one group per type a pipe ID would name nothing
// the group does not. The engine is its type's wire: one endpoint
// handler per group reads the group's events, and publish delivers to
// the local subscribers and propagates into the group itself.
//
// A peer runs one engine, whatever number of types it uses: the paper's
// TPSEngine per unrelated type of interest (§4.2) is a typed view of it
// in package tps. Attachments are per type group and subscriptions come
// from any view, so hierarchies that overlap share the attachment of
// the types they have in common, and a group stays joined until the
// engine closes.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/hist"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// PSPrefix prefixes the name a type's group ID is computed from, as the
// paper's AdvertisementsCreator prefixed the advertisement name
// (adv.setName(PS_PREFIX + pipeAdv.getName())).
const PSPrefix = "PS."

// TypeGroup returns the peer group a type's events travel in, named by
// PSPrefix + path, so every peer computes the same group.
func TypeGroup(path string) jid.ID {
	return jid.Named(jid.KindGroup, PSPrefix+path)
}

// DefaultFindInterval paces the replay loop's retries of requests a
// round could not send.
const DefaultFindInterval = time.Second

// Errors.
var (
	ErrClosed        = errors.New("tps: engine closed")
	ErrNotRegistered = errors.New("tps: event type not registered")
	ErrNilDelivery   = errors.New("tps: nil delivery callback")
)

// Config configures an Engine.
type Config struct {
	// Peer is the JXTA peer the engine runs on.
	Peer *peer.Peer
	// Registry is the shared event-type registry.
	Registry *typereg.Registry
	// FindInterval paces the replay loop's retries.
	FindInterval time.Duration
	// Tracer, when non-nil, receives hop records for sampled events
	// (publish and deliver stages; the rendezvous layer records the
	// forward stage into the same per-peer store).
	Tracer *trace.Store
	// TraceRate is the fraction of published events stamped with a
	// trace element, in [0,1]. 0 (the default) disables tracing and
	// leaves the publish path untouched.
	TraceRate float64
}

// Engine is the TPS engine: one instance per peer.
type Engine struct {
	peer *peer.Peer
	reg  *typereg.Registry
	fint time.Duration

	// attachMu serialises attaching, so a type is joined once; e.mu is
	// not held across a join.
	attachMu sync.Mutex

	mu          sync.Mutex
	cond        *sync.Cond               // broadcast on attachment changes and their groups' new leases
	roots       map[string]*typereg.Node // subscribed roots: a type registered in one's closure is attached
	attachments map[string]*attachment   // type path -> the attachment to its group
	subs        *subscriptionSet
	dedupe      *seen.Cache
	closed      bool

	// Per-message counters are atomics so the publish and deliver paths
	// never touch e.mu just to count.
	stats engineCounters

	// Stage latency histograms; always on (recording is alloc-free).
	histPublish  *hist.Hist // publish call → fan-out complete
	histDispatch *hist.Hist // dispatch → last subscriber callback return
	histTransit  *hist.Hist // publish stamp → local delivery (traced events only)

	// Sampled hop tracing; sampler decides per event ID, tracer archives.
	tracer  *trace.Store
	sampler trace.Sampler

	wg     sync.WaitGroup
	stop   chan struct{}
	wake   chan struct{}       // wakes the replay loop immediately
	rdv    *rendezvous.Service // the peer's, which every attachment's group is a lease on
	regTok int
}

// engineCounters are lock-free: the publish and deliver paths bump them
// without touching e.mu.
type engineCounters struct {
	published       atomic.Int64
	delivered       atomic.Int64
	duplicateEvents atomic.Int64
	decodeErrors    atomic.Int64
	// publishErrors counts publishes whose mesh propagation errored.
	publishErrors  atomic.Int64
	replayRequests atomic.Int64
	// replayKicks counts wake-ups sent to the replay loop.
	replayKicks atomic.Int64
}

// New creates and starts an engine: its replay loop, and its listener
// for the types registered from here on.
func New(cfg Config) (*Engine, error) {
	if cfg.Peer == nil || cfg.Registry == nil {
		return nil, errors.New("tps: engine needs a peer and a registry")
	}
	if cfg.Peer.Closed() {
		return nil, ErrClosed
	}
	if cfg.FindInterval <= 0 {
		cfg.FindInterval = DefaultFindInterval
	}
	e := &Engine{
		peer:         cfg.Peer,
		reg:          cfg.Registry,
		fint:         cfg.FindInterval,
		roots:        make(map[string]*typereg.Node),
		attachments:  make(map[string]*attachment),
		subs:         newSubscriptionSet(),
		dedupe:       seen.New(),
		histPublish:  hist.New(),
		histDispatch: hist.New(),
		histTransit:  hist.New(),
		tracer:       cfg.Tracer,
		sampler:      trace.NewSampler(cfg.TraceRate),
		stop:         make(chan struct{}),
		wake:         make(chan struct{}, 1),
		rdv:          cfg.Peer.Rendezvous(),
	}
	e.cond = sync.NewCond(&e.mu)
	e.regTok = e.reg.AddListener(e.onRegister)
	e.wg.Add(1)
	go e.replayLoop()
	return e, nil
}

// Registry returns the shared type registry.
func (e *Engine) Registry() *typereg.Registry { return e.reg }

// Snapshot implements obs.Provider. Counter keys follow the shared obs
// vocabulary: decode and publish errors are `decode_failures` and
// `publish_failures`.
func (e *Engine) Snapshot() obs.Snapshot {
	e.mu.Lock()
	attachments := len(e.attachments)
	e.mu.Unlock()
	return obs.Snapshot{
		Name:    "engine",
		Version: 2, // 1 had advs_created, advs_found, find_rounds and find_rounds_failed, for a search that is gone
		Counters: map[string]int64{
			"published":        e.stats.published.Load(),
			"delivered":        e.stats.delivered.Load(),
			"duplicates":       e.stats.duplicateEvents.Load(),
			"decode_failures":  e.stats.decodeErrors.Load(),
			"publish_failures": e.stats.publishErrors.Load(),
			"replay_requests":  e.stats.replayRequests.Load(),
			"replay_kicks":     e.stats.replayKicks.Load(),
		},
		Gauges: map[string]float64{
			"attachments":   float64(attachments),
			"subscriptions": float64(e.SubscriptionCount()),
		},
		Hists: map[string]hist.Snapshot{
			"publish_fanout_us": e.histPublish.Snapshot(),
			"dispatch_us":       e.histDispatch.Snapshot(),
			"transit_us":        e.histTransit.Snapshot(),
		},
	}
}

// SeenCache exposes the event-level dedupe cache for the "seen"
// subsystem aggregation.
func (e *Engine) SeenCache() *seen.Cache { return e.dedupe }

// SubscriptionsView lists the live subscription table: one entry per
// subscribed root type, with the attachment fan-in serving it. It feeds
// the subscription table of /inspect on the admin surface.
func (e *Engine) SubscriptionsView() []obs.SubscriptionEntry {
	subscribers := make(map[string]int)
	e.subs.mu.RLock()
	for sub := range e.subs.subs {
		subscribers[sub.node.Path()]++
	}
	e.subs.mu.RUnlock()
	paths := make([]string, 0, len(subscribers))
	for p := range subscribers {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]obs.SubscriptionEntry, 0, len(paths))
	for _, p := range paths {
		node, ok := e.reg.NodeByPath(p)
		entry := obs.SubscriptionEntry{Type: p, Subscribers: subscribers[p]}
		if ok {
			entry.Attachments = e.attachmentCount(node)
			entry.Ready = e.readyCount(node)
		}
		out = append(out, entry)
	}
	return out
}

// attachmentCount counts the live attachments covering the node's
// subtree, connected or not.
func (e *Engine) attachmentCount(node *typereg.Node) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	count := 0
	for path := range e.attachments {
		if typereg.CoversPath(node.Path(), path) {
			count++
		}
	}
	return count
}

// Close stops the replay loop and the registry listener and closes every
// attachment.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	atts := e.attachmentList()
	e.attachments = map[string]*attachment{}
	e.cond.Broadcast()
	e.mu.Unlock()

	close(e.stop)
	e.wg.Wait()
	e.reg.RemoveListener(e.regTok)
	for _, a := range atts {
		e.detach(a)
	}
}

// attachmentList copies the attachments out; e.mu must be held.
func (e *Engine) attachmentList() []*attachment {
	atts := make([]*attachment, 0, len(e.attachments))
	for _, a := range e.attachments {
		atts = append(atts, a)
	}
	return atts
}

// Publish serialises the event and publishes it in the group of the
// event's dynamic type, joining that group first if this is the type's
// first use here.
func (e *Engine) Publish(event any) error {
	node, ok := e.reg.NodeOf(event)
	if !ok {
		return fmt.Errorf("%w: %T", ErrNotRegistered, event)
	}
	a, err := e.attachmentOf(node)
	if err != nil {
		return err
	}
	// The publish_fanout_us histogram covers encode → envelope → the
	// attachment handed off; a first use's join stays outside it.
	start := time.Now()
	eventID := jid.NewMessage()
	msg, err := newEventMessage(e.peer.ID(), eventID, event)
	if err != nil {
		return err
	}
	e.stats.published.Add(1)
	// Deterministic sampling: every peer computes the same decision
	// from the event ID, so a stamped event is traced end to end. The
	// stamp appends one element and therefore only runs when sampled —
	// with TraceRate 0 the publish path is byte-identical to before.
	if e.sampler.Sample(eventID) {
		sentUS := time.Now().UnixMicro()
		trace.Stamp(msg, eventID, sentUS)
		if e.tracer != nil {
			e.tracer.Record(eventID, trace.StagePublish, e.peer.ID(), sentUS, nil)
		}
	}
	err = e.publish(a, eventID, event, msg)
	e.histPublish.Observe(time.Since(start))
	if err != nil {
		e.stats.publishErrors.Add(1)
		return fmt.Errorf("tps: publish %s: %w", node.Path(), err)
	}
	return nil
}

// EnsureType attaches the engine to the group of the node's type: it
// joins the group, at once, unless the engine has already — the
// initialization of the paper's §4.1 without its search.
func (e *Engine) EnsureType(node *typereg.Node) error {
	_, err := e.attachmentOf(node)
	return err
}

// attachmentOf returns the attachment to the node's group, attaching
// first when there is none yet.
func (e *Engine) attachmentOf(node *typereg.Node) (*attachment, error) {
	if a, err := e.attached(node.Path()); a != nil || err != nil {
		return a, err
	}
	e.attachMu.Lock()
	defer e.attachMu.Unlock()
	return e.attach(node)
}

// attached returns the attachment for the type path, nil if there is
// none yet, or ErrClosed.
func (e *Engine) attached(path string) (*attachment, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	return e.attachments[path], nil
}

// onRegister is the registry listener: a type registered in the closure
// of a subscribed root is attached, so the subscription covers it.
func (e *Engine) onRegister(n *typereg.Node) {
	e.mu.Lock()
	roots := make([]*typereg.Node, 0, len(e.roots))
	for _, r := range e.roots {
		roots = append(roots, r)
	}
	e.mu.Unlock()
	for _, root := range roots {
		if !slices.Contains(e.reg.Closure(root), n) {
			continue
		}
		if err := e.EnsureType(n); err != nil && !errors.Is(err, ErrClosed) {
			e.subs.dispatchError(e.reg, n, err)
		}
		return
	}
}

// broadcast wakes every waiter on e.cond to look again.
func (e *Engine) broadcast() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// poke wakes the loop reading ch without waiting for it; a wake-up
// already pending covers this one.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
