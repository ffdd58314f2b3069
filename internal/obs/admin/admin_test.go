package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/obs"
)

// testConfig builds a config over a live registry with one hot counter,
// a two-peer inspection and switchable health.
func testConfig(healthErr *atomic.Value) (Config, *atomic.Int64) {
	reg := obs.NewRegistry()
	var published atomic.Int64
	reg.RegisterFunc("engine", func() obs.Snapshot {
		return obs.Snapshot{Name: "engine", Version: 1,
			Counters: map[string]int64{"published": published.Load()},
			Gauges:   map[string]float64{"subscriptions": 1}}
	})
	reg.RegisterFunc("seen", func() obs.Snapshot {
		return obs.Snapshot{Name: "seen", Version: 1,
			Counters: map[string]int64{"observed": 2, "duplicates": 1}}
	})
	cfg := Config{
		Registry: reg,
		Inspect: func() obs.Inspection {
			return obs.Inspection{
				Schema: obs.SchemaVersion,
				PeerID: "urn:jxta:peer-test",
				Name:   "t",
				Peers: []obs.PeerEntry{
					{ID: "urn:jxta:rdv", Addr: "tcp://10.0.0.1:9701", Kind: obs.PeerRendezvous, ExpiresInMS: 1000},
					{Addr: "tcp://10.0.0.9:9701", Kind: obs.PeerSeed, Fails: 3, Suspect: true},
				},
				Subscriptions: []obs.SubscriptionEntry{
					{Type: "Greeting", Subscribers: 2, Attachments: 1, Ready: 1},
				},
				Types: []string{"Greeting"},
			}
		},
		Health: func() error {
			if healthErr == nil {
				return nil
			}
			if err, _ := healthErr.Load().(error); err != nil {
				return err
			}
			return nil
		},
	}
	return cfg, &published
}

func getJSON(t *testing.T, srv *httptest.Server, path string, wantCode int, into any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content-type = %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestStatsShape pins the versioned JSON contract of GET /stats: the
// envelope keys, the schema stamp, and per-subsystem counters.
func TestStatsShape(t *testing.T) {
	cfg, published := testConfig(nil)
	srv := httptest.NewServer(Handler(cfg))
	defer srv.Close()

	published.Store(41)
	var doc struct {
		Schema     int   `json:"schema"`
		TakenAtMS  int64 `json:"taken_at_ms"`
		Subsystems []struct {
			Name     string           `json:"name"`
			Version  int              `json:"version"`
			Counters map[string]int64 `json:"counters"`
		} `json:"subsystems"`
	}
	getJSON(t, srv, "/stats", http.StatusOK, &doc)
	if doc.Schema != obs.SchemaVersion {
		t.Fatalf("schema = %d, want %d", doc.Schema, obs.SchemaVersion)
	}
	if doc.TakenAtMS == 0 {
		t.Fatal("taken_at_ms missing")
	}
	if len(doc.Subsystems) != 2 || doc.Subsystems[0].Name != "engine" || doc.Subsystems[1].Name != "seen" {
		t.Fatalf("subsystems = %+v", doc.Subsystems)
	}
	if doc.Subsystems[0].Counters["published"] != 41 {
		t.Fatalf("engine.published = %d, want 41 (stats must be live)", doc.Subsystems[0].Counters["published"])
	}
	if doc.Subsystems[0].Version != 1 {
		t.Fatalf("engine snapshot version = %d", doc.Subsystems[0].Version)
	}

	// Second collect carries rates for the counter delta.
	published.Store(141)
	time.Sleep(5 * time.Millisecond) // measurable interval_ms
	var second struct {
		IntervalMS int64              `json:"interval_ms"`
		Rates      map[string]float64 `json:"rates"`
	}
	getJSON(t, srv, "/stats", http.StatusOK, &second)
	if second.IntervalMS <= 0 {
		t.Fatalf("interval_ms = %d, want > 0", second.IntervalMS)
	}
	if second.Rates["engine.published"] <= 0 {
		t.Fatalf("rates = %v, want engine.published > 0", second.Rates)
	}
}

// TestPeersAndSubscriptions: the peer and subscription tables are read
// from /inspect, the one read path; there is no route trimming it.
func TestPeersAndSubscriptions(t *testing.T) {
	cfg, _ := testConfig(nil)
	srv := httptest.NewServer(Handler(cfg))
	defer srv.Close()

	var in obs.Inspection
	getJSON(t, srv, "/inspect", http.StatusOK, &in)
	if in.PeerID != "urn:jxta:peer-test" || len(in.Peers) != 2 {
		t.Fatalf("peers = %+v", in.Peers)
	}
	if in.Peers[1].Kind != obs.PeerSeed || !in.Peers[1].Suspect || in.Peers[1].Fails != 3 {
		t.Fatalf("seed entry = %+v", in.Peers[1])
	}
	if len(in.Subscriptions) != 1 || in.Subscriptions[0].Type != "Greeting" {
		t.Fatalf("subscriptions = %+v", in.Subscriptions)
	}
	if len(in.Types) != 1 {
		t.Fatalf("types = %v", in.Types)
	}
	for _, path := range []string{"/peers", "/subscriptions"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthDegrades pins the /health contract: 200 while the peer is
// connected, 503 with the reason once connectivity is lost (the
// AwaitConnected failure surface).
func TestHealthDegrades(t *testing.T) {
	var healthErr atomic.Value
	cfg, _ := testConfig(&healthErr)
	srv := httptest.NewServer(Handler(cfg))
	defer srv.Close()

	var ok struct {
		Status string `json:"status"`
	}
	getJSON(t, srv, "/health", http.StatusOK, &ok)
	if ok.Status != "ok" {
		t.Fatalf("status = %q", ok.Status)
	}

	healthErr.Store(errors.New("no rendezvous connection: all seeds unreachable"))
	var bad struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	getJSON(t, srv, "/health", http.StatusServiceUnavailable, &bad)
	if bad.Status != "degraded" || bad.Reason == "" {
		t.Fatalf("degraded doc = %+v", bad)
	}
}

func TestReadEndpointsRejectWrites(t *testing.T) {
	cfg, _ := testConfig(nil)
	srv := httptest.NewServer(Handler(cfg))
	defer srv.Close()
	for _, path := range []string{"/stats", "/inspect", "/health"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestInspectServesTheInspection: GET /inspect is the whole document
// Inspect returns, the one tpsctl log and tpsctl replicas read.
func TestInspectServesTheInspection(t *testing.T) {
	cfg, _ := testConfig(nil)
	srv := httptest.NewServer(Handler(cfg))
	defer srv.Close()
	var in obs.Inspection
	getJSON(t, srv, "/inspect", http.StatusOK, &in)
	if want := cfg.Inspect(); !reflect.DeepEqual(in, want) {
		t.Fatalf("GET /inspect = %+v, want %+v", in, want)
	}
}

// TestServerLifecycle exercises the real listener: New binds :0, serves,
// and Close makes further requests fail.
func TestServerLifecycle(t *testing.T) {
	cfg, _ := testConfig(nil)
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/stats", s.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestNewRequiresRegistry(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); !errors.Is(err, ErrNoRegistry) {
		t.Fatalf("err = %v", err)
	}
}
