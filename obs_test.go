package tps_test

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/rig"
)

// TestPlatformStatsAndInspect drives real traffic through a rig and
// checks the redesigned introspection API reports it: live counters in
// Stats(), peers/subscriptions/types in Inspect().
func TestPlatformStatsAndInspect(t *testing.T) {
	r := newFleet(t)
	pub := r.edge()
	sub := r.edge()

	if err := tps.Register[SkiRental](pub); err != nil {
		t.Fatal(err)
	}
	if err := tps.Register[SkiRental](sub); err != nil {
		t.Fatal(err)
	}
	subEng, err := tps.NewEngine[SkiRental](sub)
	if err != nil {
		t.Fatal(err)
	}
	subIntf, err := subEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &rig.Probe[SkiRental]{}
	if err := subIntf.Subscribe(g, nil); err != nil {
		t.Fatal(err)
	}
	pubEng, err := tps.NewEngine[SkiRental](pub)
	if err != nil {
		t.Fatal(err)
	}
	pubIntf, err := pubEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 10*time.Second) || !subEng.AwaitReady(1, 10*time.Second) {
		t.Fatal("engines not ready")
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := pubIntf.Publish(SkiRental{Shop: "S", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Await(t, n)

	// Publisher side: published counted, endpoint moved bytes. The
	// engine is its types' wire: no wire subsystem counts its sends.
	pv := pub.Stats()
	if pv.Schema == 0 {
		t.Fatal("schema missing")
	}
	for _, name := range []string{"endpoint", "engine", "rendezvous", "seen"} {
		if _, ok := pv.Subsystem(name); !ok {
			t.Fatalf("publisher view lacks subsystem %q (have %+v)", name, pv.Subsystems)
		}
	}
	if _, ok := pv.Subsystem("wire"); ok {
		t.Fatal("publisher view still has a wire subsystem")
	}
	if got := pv.Counter("engine", "published"); got != n {
		t.Fatalf("engine.published = %d, want %d", got, n)
	}
	if pv.Counter("endpoint", "bytes_out") == 0 {
		t.Fatal("endpoint.bytes_out = 0, want > 0")
	}

	// Subscriber side: delivered events and hop-filter activity.
	sv := sub.Stats()
	if got := sv.Counter("engine", "delivered"); got < n {
		t.Fatalf("engine.delivered = %d, want >= %d", got, n)
	}
	if sv.Counter("seen", "observed") == 0 {
		t.Fatal("seen.observed = 0, want > 0")
	}

	// Inspect: the subscriber knows its rendezvous, its subscription
	// and its registered type.
	in := sub.Inspect()
	if in.PeerID != sub.PeerID() {
		t.Fatalf("inspect peer_id = %q", in.PeerID)
	}
	foundRdv := false
	for _, pe := range in.Peers {
		if pe.Kind == "rendezvous" && pe.ID != "" {
			foundRdv = true
		}
	}
	if !foundRdv {
		t.Fatalf("no connected rendezvous in %+v", in.Peers)
	}
	foundSub := false
	for _, se := range in.Subscriptions {
		if se.Subscribers >= 1 && se.Attachments >= 1 {
			foundSub = true
		}
	}
	if !foundSub {
		t.Fatalf("no live subscription in %+v", in.Subscriptions)
	}
	if len(in.Types) == 0 {
		t.Fatal("no registered types reported")
	}

	// Closing the engine removes its subscription; the counters are the
	// platform's and stay. The closed engine's interface refuses work.
	subEng.Close()
	if engine, _ := sub.Stats().Subsystem("engine"); engine.Gauges["subscriptions"] != 0 {
		t.Fatalf("engine.subscriptions after engine close = %v, want 0", engine.Gauges["subscriptions"])
	}
	if got := sub.Stats().Counter("engine", "delivered"); got < n {
		t.Fatalf("engine.delivered after engine close = %d, want >= %d", got, n)
	}
	if err := subIntf.Publish(SkiRental{Shop: "closed"}); err == nil {
		t.Fatal("a closed engine's interface published")
	}
}

// TestStatsCollectDuringPublish hammers Collect and Inspect while the
// publish→fan-out path runs, so the race detector can prove the
// introspection API never tears the hot path.
func TestStatsCollectDuringPublish(t *testing.T) {
	r := newFleet(t)
	pub := r.edge()
	sub := r.edge()
	if err := tps.Register[SkiRental](pub); err != nil {
		t.Fatal(err)
	}
	if err := tps.Register[SkiRental](sub); err != nil {
		t.Fatal(err)
	}
	subEng, err := tps.NewEngine[SkiRental](sub)
	if err != nil {
		t.Fatal(err)
	}
	subIntf, err := subEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &rig.Probe[SkiRental]{}
	if err := subIntf.Subscribe(g, nil); err != nil {
		t.Fatal(err)
	}
	pubEng, err := tps.NewEngine[SkiRental](pub)
	if err != nil {
		t.Fatal(err)
	}
	pubIntf, err := pubEng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pubEng.AwaitReady(1, 10*time.Second) {
		t.Fatal("publisher not ready")
	}

	const events = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, p := range []*tps.Platform{pub, sub} {
		wg.Add(1)
		go func(p *tps.Platform) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = p.Stats()
					_ = p.Inspect()
				}
			}
		}(p)
	}
	for i := 0; i < events; i++ {
		if err := pubIntf.Publish(SkiRental{Shop: "race", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	g.Await(t, events)
	close(stop)
	wg.Wait()
	if got := pub.Stats().Counter("engine", "published"); got != events {
		t.Fatalf("engine.published = %d, want %d", got, events)
	}
}

// TestAdminSurfaceEndToEnd boots a platform with the admin server on an
// ephemeral port and walks the HTTP surface like an operator would.
func TestAdminSurfaceEndToEnd(t *testing.T) {
	r := newFleet(t)
	p := r.platform(tps.Config{Seeds: []string{"rdv"}, AdminAddr: "127.0.0.1:0"})
	addr := p.AdminAddr()
	if addr == "" {
		t.Fatal("AdminAddr empty with admin configured")
	}
	if !p.AwaitRendezvous(10 * time.Second) {
		t.Fatal("no rendezvous")
	}
	if err := tps.Register[SkiRental](p); err != nil {
		t.Fatal(err)
	}
	eng, err := tps.NewEngine[SkiRental](p)
	if err != nil {
		t.Fatal(err)
	}
	intf, err := eng.NewInterface(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := intf.Publish(SkiRental{Shop: "ops"}); err != nil {
		t.Fatal(err)
	}

	var view struct {
		Schema     int `json:"schema"`
		Subsystems []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
		} `json:"subsystems"`
	}
	getAs(t, "http://"+addr+"/stats", http.StatusOK, &view)
	names := map[string]map[string]int64{}
	for _, s := range view.Subsystems {
		names[s.Name] = s.Counters
	}
	for _, want := range []string{"endpoint", "engine", "rendezvous", "seen"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("/stats lacks %q: %v", want, names)
		}
	}
	if _, ok := names["wire"]; ok {
		t.Fatalf("/stats still has a wire subsystem: %v", names)
	}
	if names["engine"]["published"] != 1 {
		t.Fatalf("engine.published over HTTP = %d, want 1", names["engine"]["published"])
	}

	var health struct {
		Status string `json:"status"`
	}
	getAs(t, "http://"+addr+"/health", http.StatusOK, &health)
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}

	var in tps.Inspection
	getAs(t, "http://"+addr+"/inspect", http.StatusOK, &in)
	if len(in.Peers) == 0 {
		t.Fatal("/inspect lists no peers for a seeded, connected peer")
	}

	// Platform.Close shuts the admin server down with it.
	p.Close()
	if _, err := http.Get("http://" + addr + "/stats"); err == nil {
		t.Fatal("admin server still reachable after Platform.Close")
	}
}

// TestAdminHealthDegradedWhenUnconnected pins the /health degradation
// contract: a peer whose seeds are unreachable (AwaitConnected fails)
// serves 503.
func TestAdminHealthDegradedWhenUnconnected(t *testing.T) {
	r := newFleet(t)
	p := r.platform(tps.Config{Seeds: []string{"no-such-rdv"}, AdminAddr: "127.0.0.1:0"})
	if p.AwaitRendezvous(200 * time.Millisecond) {
		t.Fatal("connected to a nonexistent rendezvous?")
	}
	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	getAs(t, "http://"+p.AdminAddr()+"/health", http.StatusServiceUnavailable, &health)
	if health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("health = %+v", health)
	}
}

func getAs(t *testing.T, url string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}
