// Package admin embeds an HTTP/JSON control-plane server in a TPS peer:
// the read side of the observability story. It serves the obs
// registry's stats view and the peer's structural introspection over
// plain GETs, one read path for curl and tools alike.
//
// Endpoints, all rooted at the configured listen address:
//
//	GET /stats          — obs.View: every subsystem's counters, gauges, rates
//	GET /metrics        — the same registry in Prometheus text exposition
//	GET /inspect        — the whole obs.Inspection: peers (leases,
//	                      failure-detector state), subscriptions, cursors,
//	                      event log, replicas, types
//	GET /trace          — retained traced events; /trace/{event-id} for hops
//	GET /health         — 200 {"status":"ok"} or 503 {"status":"degraded",...}
//
// With Config.Profiling set, net/http/pprof is additionally mounted
// under /debug/pprof/.
//
// The server is off unless explicitly configured (tps.Config.AdminAddr)
// and binds whatever address it is given — bind loopback unless the
// network is trusted; there is no authentication layer.
package admin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// DefaultPort is the conventional admin port, used by cmd/rendezvous
// and assumed by cmd/tpsctl when only a seed address is given.
const DefaultPort = 7700

// closeTimeout bounds graceful shutdown: in-flight requests get this
// long before the listener is torn down hard.
const closeTimeout = 2 * time.Second

// Config wires the server to its data sources. Registry is mandatory;
// nil Inspect or Health degrade the corresponding endpoints gracefully
// (empty inspection, always-ok health).
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7700" or ":0".
	Addr string
	// Registry supplies GET /stats.
	Registry *obs.Registry
	// Inspect supplies GET /inspect.
	Inspect func() obs.Inspection
	// Health reports nil when the peer is healthy; the error becomes
	// the degradation reason on GET /health (status 503).
	Health func() error
	// Trace, when set, serves the peer-local hop-trace archive: GET
	// /trace lists retained traced events, GET /trace/{event-id} returns
	// this peer's hop records for one event (clients merge the documents
	// from several peers with trace.Assemble).
	Trace *trace.Store
	// Profiling mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose memory contents and cost CPU to capture —
	// enable only on loopback-bound addresses or trusted networks.
	Profiling bool
}

// Server is a running admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ErrNoRegistry is returned by New when Config.Registry is nil.
var ErrNoRegistry = errors.New("admin: nil stats registry")

// New binds the address and starts serving. Close releases it.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, ErrNoRegistry
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains in-flight requests briefly, then tears the server down.
// Platform.Close calls it before the substrate stops, so /stats never
// observes a half-closed peer.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Handler builds the admin mux for the given sources. New uses it; tests
// mount it on httptest servers.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !allowGet(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, cfg.Registry.Collect())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !allowGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", metricsContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(renderMetrics(cfg.Registry.Collect()))
	})
	if cfg.Trace != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			writeJSON(w, http.StatusOK, traceListDoc(cfg.Trace))
		})
		mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			id := strings.TrimPrefix(r.URL.Path, "/trace/")
			writeJSON(w, http.StatusOK, traceEventDoc(cfg.Trace, id))
		})
	}
	if cfg.Profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/inspect", func(w http.ResponseWriter, r *http.Request) {
		if !allowGet(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, inspect(cfg))
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		if !allowGet(w, r) {
			return
		}
		doc, code := healthDoc(cfg)
		writeJSON(w, code, doc)
	})
	return mux
}

func inspect(cfg Config) obs.Inspection {
	if cfg.Inspect == nil {
		return obs.Inspection{Schema: obs.SchemaVersion}
	}
	return cfg.Inspect()
}

// traceListDoc lists the traced events this peer retains.
func traceListDoc(s *trace.Store) any {
	events := s.Events()
	if events == nil {
		events = []trace.EventSummary{}
	}
	return struct {
		Schema int                  `json:"schema"`
		Events []trace.EventSummary `json:"events"`
	}{obs.SchemaVersion, events}
}

// traceEventDoc returns this peer's hop records for one event. Unknown
// events yield an empty hops array rather than 404: a cross-peer trace
// query asks every peer and merges whatever each one saw, and "saw
// nothing" is a valid answer.
func traceEventDoc(s *trace.Store, eventID string) any {
	hops := s.Hops(eventID)
	if hops == nil {
		hops = []trace.Hop{}
	}
	return struct {
		Schema  int         `json:"schema"`
		EventID string      `json:"event_id"`
		Hops    []trace.Hop `json:"hops"`
	}{obs.SchemaVersion, eventID, hops}
}

func healthDoc(cfg Config) (any, int) {
	type doc struct {
		Schema int    `json:"schema"`
		Status string `json:"status"`
		Reason string `json:"reason,omitempty"`
	}
	if cfg.Health != nil {
		if err := cfg.Health(); err != nil {
			return doc{obs.SchemaVersion, "degraded", err.Error()}, http.StatusServiceUnavailable
		}
	}
	return doc{Schema: obs.SchemaVersion, Status: "ok"}, http.StatusOK
}

func allowGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "read-only endpoint", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf)
	w.Write([]byte{'\n'})
}
