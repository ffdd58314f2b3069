// Package engine implements the TPS engine over the JXTA substrate —
// the paper's §3.4 architecture.
//
// The engine is built from the four blocks of Figure 10:
//
//   - TPSEngine (this type): collects publications and subscriptions and
//     dispatches them to the other blocks;
//   - Advertisements: the creator (creator.go) builds the one
//     advertisement that represents a type, the finder (finder.go)
//     keeps searching for further advertisements related to tracked
//     types and dispatches them to listeners;
//   - Interface Repository (subscriptions.go): stores callback objects
//     and exception handlers and starts/stops subscriptions;
//   - Connections (attach.go): joins the per-type peer groups found or
//     created, opens wire input/output pipes and runs the pipe readers.
//
// One engine serves one type hierarchy; programs interested in several
// unrelated hierarchies create several engines (§4.2).
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/hist"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// PSPrefix prefixes every TPS advertisement name, as in the paper's
// AdvertisementsCreator (adv.setName(PS_PREFIX + pipeAdv.getName())).
const PSPrefix = "PS."

// Defaults.
const (
	// DefaultFindTimeout is how long a publisher or subscriber searches
	// for an existing type advertisement before creating its own — the
	// paper's "specific amount of time".
	DefaultFindTimeout = 2 * time.Second
	// DefaultFindInterval is the advertisement finder's loop period —
	// the paper's SLEEPING_TIME.
	DefaultFindInterval = time.Second
)

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
	// FindTimeout bounds the initial advertisement search.
	FindTimeout time.Duration
	// FindInterval is the background finder's period.
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

// Engine is the TPS engine: one instance per type hierarchy.
type Engine struct {
	peer  *peer.Peer
	reg   *typereg.Registry
	ftime time.Duration
	fint  time.Duration

	mu           sync.Mutex
	cond         *sync.Cond                        // broadcast on attachment changes and their groups' new leases
	tracked      map[string]*typereg.Node          // root paths the finder queries for
	attachments  map[string]map[jid.ID]*attachment // type path -> group ID -> attachment
	pubSnaps     map[string][]*attachment          // immutable fan-out snapshots; invalidated on attach/detach
	creating     map[jid.ID]bool                   // group IDs being attached right now
	creatingPath map[string]bool                   // type paths whose own adv is being created
	subs         *subscriptionSet
	dedupe       *seen.Cache
	self         *publishedEvents // decode-once: values this peer published, by event ID
	closed       bool

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

	wg       sync.WaitGroup
	stop     chan struct{}
	kick     chan struct{} // wakes the finder immediately
	wake     chan struct{} // wakes the replay loop immediately
	lisTok   int
	rdv      *rendezvous.Service // the peer's, which every attachment's group is a lease on
	leaseTok int
}

// engineCounters are lock-free: the publish and deliver paths bump them
// without touching e.mu.
type engineCounters struct {
	published       atomic.Int64
	delivered       atomic.Int64
	duplicateEvents atomic.Int64
	decodeErrors    atomic.Int64
	// publishErrors counts per-attachment publish failures (wire send or
	// mesh propagation errored). A Publish call across several attached
	// groups can partially fail; each failing attachment counts once.
	publishErrors  atomic.Int64
	advsCreated    atomic.Int64
	advsFound      atomic.Int64
	replayRequests atomic.Int64
	// findRounds counts the finder's query rounds, findRoundsFailed
	// those in which a query reached nobody (no lease yet, or every
	// send refused).
	findRounds       atomic.Int64
	findRoundsFailed atomic.Int64
	// replayKicks counts wake-ups sent to the replay loop.
	replayKicks atomic.Int64
}

// New creates and starts an engine: the advertisement finder begins
// running immediately.
func New(cfg Config) (*Engine, error) {
	if cfg.Peer == nil || cfg.Registry == nil {
		return nil, errors.New("tps: engine needs a peer and a registry")
	}
	if cfg.FindTimeout <= 0 {
		cfg.FindTimeout = DefaultFindTimeout
	}
	if cfg.FindInterval <= 0 {
		cfg.FindInterval = DefaultFindInterval
	}
	e := &Engine{
		peer:         cfg.Peer,
		reg:          cfg.Registry,
		ftime:        cfg.FindTimeout,
		fint:         cfg.FindInterval,
		tracked:      make(map[string]*typereg.Node),
		attachments:  make(map[string]map[jid.ID]*attachment),
		pubSnaps:     make(map[string][]*attachment),
		creating:     make(map[jid.ID]bool),
		creatingPath: make(map[string]bool),
		subs:         newSubscriptionSet(),
		dedupe:       seen.New(),
		self:         newPublishedEvents(),
		histPublish:  hist.New(),
		histDispatch: hist.New(),
		histTransit:  hist.New(),
		tracer:       cfg.Tracer,
		sampler:      trace.NewSampler(cfg.TraceRate),
		stop:         make(chan struct{}),
		kick:         make(chan struct{}, 1),
		wake:         make(chan struct{}, 1),
	}
	e.cond = sync.NewCond(&e.mu)
	disc := cfg.Peer.Discovery()
	if disc == nil {
		return nil, ErrClosed
	}
	e.lisTok = disc.AddListener(e.onAdvertisement)
	// A query sent before the net group holds a lease reaches nobody;
	// the grant is when the finder's next round is worth running. An
	// event group's grant is not.
	net := jid.NetGroup.String()
	e.rdv = cfg.Peer.Rendezvous()
	e.leaseTok = e.rdv.AddLeaseListener(func(_ jid.ID, group string) {
		if group == net || group == "" {
			e.kickFinder()
		}
	})
	e.wg.Add(2)
	go e.finderLoop()
	go e.replayLoop()
	return e, nil
}

// Registry returns the shared type registry.
func (e *Engine) Registry() *typereg.Registry { return e.reg }

// Peer returns the underlying JXTA peer.
func (e *Engine) Peer() *peer.Peer { return e.peer }

// Snapshot implements obs.Provider. Counter keys follow the shared obs
// vocabulary: decode and publish errors are `decode_failures` and
// `publish_failures`.
func (e *Engine) Snapshot() obs.Snapshot {
	e.mu.Lock()
	attachments := 0
	for _, m := range e.attachments {
		attachments += len(m)
	}
	e.mu.Unlock()
	return obs.Snapshot{
		Name:    "engine",
		Version: 1,
		Counters: map[string]int64{
			"published":          e.stats.published.Load(),
			"delivered":          e.stats.delivered.Load(),
			"duplicates":         e.stats.duplicateEvents.Load(),
			"decode_failures":    e.stats.decodeErrors.Load(),
			"publish_failures":   e.stats.publishErrors.Load(),
			"advs_created":       e.stats.advsCreated.Load(),
			"advs_found":         e.stats.advsFound.Load(),
			"replay_requests":    e.stats.replayRequests.Load(),
			"find_rounds":        e.stats.findRounds.Load(),
			"find_rounds_failed": e.stats.findRoundsFailed.Load(),
			"replay_kicks":       e.stats.replayKicks.Load(),
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

// ZeroSnapshot is the engine snapshot of a peer running no engines yet:
// every counter present and zero, so the stats document's subsystem
// catalog is stable from the first collect.
func ZeroSnapshot() obs.Snapshot {
	return obs.Snapshot{
		Name:    "engine",
		Version: 1,
		Counters: map[string]int64{
			"published":          0,
			"delivered":          0,
			"duplicates":         0,
			"decode_failures":    0,
			"publish_failures":   0,
			"advs_created":       0,
			"advs_found":         0,
			"replay_requests":    0,
			"find_rounds":        0,
			"find_rounds_failed": 0,
			"replay_kicks":       0,
		},
		Gauges: map[string]float64{
			"attachments":   0,
			"subscriptions": 0,
		},
		Hists: map[string]hist.Snapshot{
			"publish_fanout_us": {},
			"dispatch_us":       {},
			"transit_us":        {},
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
	for path, m := range e.attachments {
		if typereg.CoversPath(node.Path(), path) {
			count += len(m)
		}
	}
	return count
}

// Close stops the finder, closes every attachment and detaches from
// discovery.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	var atts []*attachment
	for _, m := range e.attachments {
		for _, a := range m {
			atts = append(atts, a)
		}
	}
	e.attachments = map[string]map[jid.ID]*attachment{}
	e.cond.Broadcast()
	e.mu.Unlock()

	close(e.stop)
	e.wg.Wait()
	if disc := e.peer.Discovery(); disc != nil {
		disc.RemoveListener(e.lisTok)
	}
	e.rdv.RemoveLeaseListener(e.leaseTok)
	for _, a := range atts {
		e.detach(a)
	}
}

// Publish serialises the event and sends it on the wire pipe of every
// group attached for the event's dynamic type, creating the type's
// advertisement first if nobody advertises it yet.
func (e *Engine) Publish(event any) error {
	node, ok := e.reg.NodeOf(event)
	if !ok {
		return fmt.Errorf("%w: %T", ErrNotRegistered, event)
	}
	if err := e.EnsureType(node); err != nil {
		return err
	}
	// The publish_fanout_us histogram covers encode → envelope → every
	// attachment handed off; EnsureType stays outside it because the
	// first-publish advertisement search blocks for seconds by design.
	start := time.Now()
	payload, err := codec.Gob{}.Encode(event)
	if err != nil {
		return err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	// Steady-state publish reuses the cached fan-out snapshot; the slice
	// is rebuilt only after an attach or detach invalidated it, so the
	// per-call copy-under-mutex allocation is gone from the hot path.
	atts, ok := e.pubSnaps[node.Path()]
	if !ok {
		atts = make([]*attachment, 0, len(e.attachments[node.Path()]))
		for _, a := range e.attachments[node.Path()] {
			atts = append(atts, a)
		}
		e.pubSnaps[node.Path()] = atts
	}
	e.mu.Unlock()
	e.stats.published.Add(1)

	// Build the two-element TPS message once and share its elements
	// across the fan-out: each attachment's pipe and group go into the
	// frames as envelope fields, and nothing below writes to them.
	eventID := jid.NewMessage()
	// Decode-once: remember the outgoing value so the synchronous wire
	// loopback (and any mesh echo) dispatches it without a gob decode.
	e.self.put(eventID, event)
	msg := newEventMessage(e, eventID, payload)
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

	var firstErr error
	sent := 0
	for i, a := range atts {
		// A message ID names one injection into one group: a rendezvous
		// serving several groups keeps one duplicate cache for them all,
		// and would drop a second group's copy under the first's ID. The
		// event ID, which subscribers dedupe on, stays shared.
		out := msg
		if i > 0 {
			out = msg.Dup()
			out.ID = jid.NewMessage()
		}
		if err := a.publish(out); err != nil {
			e.stats.publishErrors.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	e.histPublish.Observe(time.Since(start))
	if sent == 0 && firstErr != nil {
		return fmt.Errorf("tps: publish %s: %w", node.Path(), firstErr)
	}
	return nil
}

// EnsureType makes sure at least one advertisement (and attachment)
// exists for the node's type: it searches for the configured find
// timeout and creates this peer's own advertisement when nothing shows
// up — the initialization behaviour of the paper's §4.1.
func (e *Engine) EnsureType(node *typereg.Node) error {
	e.trackPath(node)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if len(e.attachments[node.Path()]) > 0 {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()

	// Trigger an immediate search round and wait for a matching
	// advertisement to attach.
	e.kickFinder()
	deadline := time.Now().Add(e.ftime)
	defer time.AfterFunc(e.ftime, e.broadcast).Stop()
	e.mu.Lock()
	for len(e.attachments[node.Path()]) == 0 && !e.closed && time.Now().Before(deadline) {
		e.cond.Wait()
	}
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if len(e.attachments[node.Path()]) > 0 {
		e.mu.Unlock()
		return nil
	}
	// Nobody advertises this type: create our own advertisement, keep
	// looking for others in the background (the finder stays on it).
	// Only one goroutine creates per path; latecomers wait for it.
	for e.creatingPath[node.Path()] && !e.closed {
		e.cond.Wait()
	}
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if len(e.attachments[node.Path()]) > 0 {
		e.mu.Unlock()
		return nil
	}
	e.creatingPath[node.Path()] = true
	e.mu.Unlock()

	err := e.createAndAttach(node)
	e.mu.Lock()
	delete(e.creatingPath, node.Path())
	e.cond.Broadcast()
	e.mu.Unlock()
	return err
}

// broadcast wakes every waiter on e.cond to look again.
func (e *Engine) broadcast() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// trackPath registers a root path with the background finder.
func (e *Engine) trackPath(node *typereg.Node) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tracked[node.Path()]; !ok {
		e.tracked[node.Path()] = node
	}
}

func (e *Engine) kickFinder() { poke(e.kick) }

// poke wakes the loop reading ch without waiting for it; a wake-up
// already pending covers this one.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
