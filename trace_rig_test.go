package tps_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/obs/admin"
	"github.com/tps-p2p/tps/internal/obs/trace"
	"github.com/tps-p2p/tps/internal/rig"
)

// TestTraceRigThreePeers is the ISSUE's acceptance rig: three platforms
// (rendezvous + publisher + subscriber) with TraceRate 1 and live admin
// endpoints. One published event must be reconstructable as a
// multi-peer hop path by querying /trace/{id} on every peer and merging
// with trace.Assemble — exactly what `tpsctl trace <event-id>` does.
// The same rig also pins that /metrics serves a valid Prometheus
// exposition carrying the new latency histograms, and that /stats
// reports schema 2.
func TestTraceRigThreePeers(t *testing.T) {
	c := rig.New(t, rig.Netsim)
	traced := func(cfg tps.Config) *tps.Platform {
		cfg.TraceRate = 1
		cfg.AdminAddr = "127.0.0.1:0"
		return c.Start(cfg).Platform
	}
	rdv := traced(tps.Config{Name: "rdv", Rendezvous: true})
	pub := traced(tps.Config{Name: "pub", Seeds: []string{"rdv"}})
	sub := traced(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
	admins := []*tps.Platform{rdv, pub, sub}
	for _, p := range admins {
		if p.AdminAddr() == "" {
			t.Fatal("AdminAddr empty with admin configured")
		}
	}

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
	if err := pubIntf.Publish(SkiRental{Shop: "trace", Brand: "X", Price: 1}); err != nil {
		t.Fatal(err)
	}
	g.Await(t, 1)

	// The publisher recorded the publish hop synchronously, so its
	// /trace list names the event ID — the same way an operator finds
	// it with `tpsctl trace`.
	var list struct {
		Schema int                  `json:"schema"`
		Events []trace.EventSummary `json:"events"`
	}
	getAs(t, "http://"+pub.AdminAddr()+"/trace", 200, &list)
	if list.Schema != 2 {
		t.Fatalf("/trace schema = %d, want 2", list.Schema)
	}
	if len(list.Events) != 1 {
		t.Fatalf("publisher trace list = %+v, want exactly the published event", list.Events)
	}
	eventID := list.Events[0].EventID

	// Cross-peer assembly: ask every peer for its hops and merge. The
	// forward hop on the rendezvous and the deliver hop on the
	// subscriber land asynchronously, so poll until the path spans
	// publish → forward → deliver.
	var tr trace.Trace
	deadline := time.Now().Add(10 * time.Second)
	for {
		var hops []trace.Hop
		for _, p := range admins {
			var doc struct {
				Hops []trace.Hop `json:"hops"`
			}
			getAs(t, "http://"+p.AdminAddr()+"/trace/"+eventID, 200, &doc)
			hops = append(hops, doc.Hops...)
		}
		tr = trace.Assemble(eventID, hops)
		if hasStages(tr, trace.StagePublish, trace.StageForward, trace.StageDeliver) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never completed: %+v", tr.Hops)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tr.Hops[0].Stage != trace.StagePublish {
		t.Fatalf("trace does not start at publish: %+v", tr.Hops)
	}
	if tr.SentUS == 0 {
		t.Fatalf("assembled trace lost the publish timestamp: %+v", tr)
	}
	peers := map[string]bool{}
	for _, h := range tr.Hops {
		peers[h.Peer] = true
	}
	if len(peers) < 3 {
		t.Fatalf("hop path spans %d peers, want publisher, rendezvous and subscriber: %+v", len(peers), tr.Hops)
	}

	// /metrics on the publisher: a valid Prometheus exposition that
	// includes the new latency histograms alongside the counters.
	body := getBody(t, "http://"+pub.AdminAddr()+"/metrics")
	if err := admin.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, body)
	}
	for _, series := range []string{
		"tps_engine_published_total",
		"tps_engine_publish_fanout_us_count",
		"tps_endpoint_encode_us_count",
	} {
		if !containsSeries(body, series) {
			t.Fatalf("/metrics lacks %s:\n%s", series, body)
		}
	}

	var view struct {
		Schema int `json:"schema"`
	}
	getAs(t, "http://"+pub.AdminAddr()+"/stats", 200, &view)
	if view.Schema != 2 {
		t.Fatalf("/stats schema = %d, want 2", view.Schema)
	}
}

// getBody fetches a URL and returns its body as a string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// containsSeries reports whether a sample line for the metric name
// appears in the exposition (with or without labels).
func containsSeries(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			return true
		}
	}
	return false
}

// hasStages reports whether the trace carries every listed stage.
func hasStages(tr trace.Trace, stages ...string) bool {
	have := map[string]bool{}
	for _, h := range tr.Hops {
		have[h.Stage] = true
	}
	for _, s := range stages {
		if !have[s] {
			return false
		}
	}
	return true
}
