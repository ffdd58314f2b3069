// Package obs is the observability core of a TPS peer: a registry where
// every instrumented subsystem (engine, endpoint, tcpnet, rendezvous,
// seen) registers a named snapshot provider, and one
// Collect() call assembles a coherent point-in-time view of all of them
// — counters, gauges, and per-second rates derived between collections.
//
// The registry is deliberately off the hot path: subsystems keep
// counting with the same atomic counters they always had, and pay
// nothing until somebody actually collects. Registration and collection
// take a registry lock; Snapshot providers must therefore be safe to
// call concurrently with the traffic they observe (all of ours are —
// they only read atomics or take short service-local locks).
//
// The JSON shape of View is versioned by SchemaVersion and documented in
// OBSERVABILITY.md; the admin HTTP surface (internal/obs/admin) and
// cmd/tpsctl both speak it, and cmd/benchjson stamps it into the
// BENCH_<pr>.json trajectory files so they stay self-describing.
package obs

import (
	"sort"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/obs/hist"
)

// SchemaVersion identifies the JSON shape of View, Snapshot and
// Inspection. Bump it whenever a field is renamed, removed, or changes
// meaning; adding fields is backward compatible and does not bump it.
//
// Schema 2 (PR 9): Snapshot grew the Hists map of per-stage latency
// histograms. Counters, gauges and the View envelope are unchanged;
// the bump marks that consumers may rely on histogram presence.
const SchemaVersion = 2

// Snapshot is one subsystem's point-in-time state: monotonic counters
// (totals since the subsystem started) and level gauges (current
// values, may go up and down). Counter and gauge keys use lower_snake
// naming with the shared vocabulary — `sent`, `dropped`, `*_failures` —
// so operators never have to guess which of three spellings a subsystem
// picked.
type Snapshot struct {
	// Name identifies the subsystem ("engine", "endpoint", "tcpnet",
	// "rendezvous", "seen").
	Name string `json:"name"`
	// Version is the subsystem's snapshot version, independent of the
	// overall schema: bumped when that subsystem's key set changes
	// incompatibly.
	Version int `json:"version"`
	// Counters are monotonically non-decreasing totals.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges are instantaneous levels (queue depth, live attachments,
	// cache occupancy).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Hists are per-stage latency histograms (`*_us` keys, microsecond
	// buckets — see internal/obs/hist for the fixed bucket layout).
	Hists map[string]hist.Snapshot `json:"histograms,omitempty"`
}

// Provider yields a subsystem snapshot. Implementations must be safe to
// call at any time from any goroutine.
type Provider interface {
	Snapshot() Snapshot
}

// ProviderFunc adapts a plain function to Provider.
type ProviderFunc func() Snapshot

// Snapshot implements Provider.
func (f ProviderFunc) Snapshot() Snapshot { return f() }

// Merge folds several snapshots of the same subsystem kind into one,
// summing counters and gauges: Collect reports the providers registered
// under one name as their merged snapshot. The highest Version wins.
func Merge(name string, snaps ...Snapshot) Snapshot {
	out := Snapshot{Name: name, Version: 1}
	for _, s := range snaps {
		if s.Version > out.Version {
			out.Version = s.Version
		}
		for k, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			out.Gauges[k] += v
		}
		for k, h := range s.Hists {
			if out.Hists == nil {
				out.Hists = make(map[string]hist.Snapshot)
			}
			out.Hists[k] = hist.Merge(out.Hists[k], h)
		}
	}
	return out
}

// View is the coherent multi-subsystem result of one Collect call — the
// document GET /stats serves.
type View struct {
	// Schema is SchemaVersion at build time.
	Schema int `json:"schema"`
	// TakenAtMS is the collection wall-clock instant (unix ms).
	TakenAtMS int64 `json:"taken_at_ms"`
	// IntervalMS is the time since the previous Collect on the same
	// registry; 0 on the first collection.
	IntervalMS int64 `json:"interval_ms,omitempty"`
	// Subsystems holds one merged snapshot per registered name, sorted
	// by name so the document diffs cleanly.
	Subsystems []Snapshot `json:"subsystems"`
	// Rates maps "<subsystem>.<counter>" to its per-second rate over
	// IntervalMS. Empty on the first collection.
	Rates map[string]float64 `json:"rates,omitempty"`
}

// Subsystem returns the named snapshot from the view, or a zero
// Snapshot and false.
func (v View) Subsystem(name string) (Snapshot, bool) {
	for _, s := range v.Subsystems {
		if s.Name == name {
			return s, true
		}
	}
	return Snapshot{}, false
}

// Counter returns a counter by "<subsystem>.<key>" addressing, or 0.
func (v View) Counter(subsystem, key string) int64 {
	s, ok := v.Subsystem(subsystem)
	if !ok {
		return 0
	}
	return s.Counters[key]
}

type registration struct {
	name string
	p    Provider
}

// Registry holds the providers of one peer. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	provs []*registration
	now   func() time.Time

	// previous collection, for rate derivation
	lastAt       time.Time
	lastCounters map[string]int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{now: time.Now}
}

// SetClock substitutes the time source (tests).
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// Register adds a provider under the subsystem name and returns a
// function that removes it again (engines come and go with their
// Close). Several providers may share one name; Collect merges them.
func (r *Registry) Register(name string, p Provider) (remove func()) {
	reg := &registration{name: name, p: p}
	r.mu.Lock()
	r.provs = append(r.provs, reg)
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			for i, cur := range r.provs {
				if cur == reg {
					r.provs = append(r.provs[:i], r.provs[i+1:]...)
					return
				}
			}
		})
	}
}

// RegisterFunc is Register for a plain function.
func (r *Registry) RegisterFunc(name string, f func() Snapshot) (remove func()) {
	return r.Register(name, ProviderFunc(f))
}

// Collect snapshots every provider and assembles the merged view,
// deriving per-second counter rates against the previous Collect call.
//
// Collect holds the registry lock for the duration, so two concurrent
// collectors see strictly ordered intervals; providers are invoked
// under that lock and must not call back into the registry.
func (r *Registry) Collect() View {
	r.mu.Lock()
	defer r.mu.Unlock()

	byName := make(map[string][]Snapshot)
	order := make([]string, 0, len(r.provs))
	for _, reg := range r.provs {
		if _, ok := byName[reg.name]; !ok {
			order = append(order, reg.name)
		}
		byName[reg.name] = append(byName[reg.name], reg.p.Snapshot())
	}
	sort.Strings(order)

	at := r.now()
	v := View{Schema: SchemaVersion, TakenAtMS: at.UnixMilli()}
	flat := make(map[string]int64)
	for _, name := range order {
		merged := Merge(name, byName[name]...)
		v.Subsystems = append(v.Subsystems, merged)
		for k, c := range merged.Counters {
			flat[name+"."+k] = c
		}
	}

	if !r.lastAt.IsZero() {
		dt := at.Sub(r.lastAt)
		v.IntervalMS = dt.Milliseconds()
		if secs := dt.Seconds(); secs > 0 {
			rates := make(map[string]float64, len(flat))
			for k, c := range flat {
				if prev, ok := r.lastCounters[k]; ok && c >= prev {
					rates[k] = roundRate(float64(c-prev) / secs)
				}
			}
			v.Rates = rates
		}
	}
	r.lastAt = at
	r.lastCounters = flat
	return v
}

func roundRate(f float64) float64 {
	return float64(int64(f*1000+0.5)) / 1000
}
