// Command tpsctl is the operator's Swiss-army knife for a live TPS/JXTA
// mesh: probe event types, and read any peer's admin endpoint — its
// counters, peers, subscriptions and logs — without writing a program.
//
// Mesh command (speaks JXTA to a rendezvous):
//
//	tpsctl -seed tcp://rdv:9701 listen SkiRental    # dump raw events of a type's group
//	tpsctl -seed tcp://rdv:9701 listen Offer/SkiRental  # a subtype: its registered path
//
// Admin commands (speak HTTP/JSON to a peer's admin endpoint; the
// address comes from -admin, or is derived from the -seed host on the
// default admin port):
//
//	tpsctl stats -admin 127.0.0.1:7700              # one coherent stats view
//	tpsctl stats -seed tcp://rdv:9701               # same, address derived
//	tpsctl peers -admin 127.0.0.1:7700              # leases, seeds, health
//	tpsctl subs  -admin 127.0.0.1:7700              # subscriptions and types
//	tpsctl log   -admin 127.0.0.1:7700              # durable event log: retained ranges, cursor lag
//	tpsctl replicas -admin 127.0.0.1:7700           # replica set: membership, per-topic digest lag, last sync
//	tpsctl watch -admin 127.0.0.1:7700 -interval 2s # poll /stats, print deltas + per-interval p99
//	                                                # (failovers are called out explicitly)
//	tpsctl latency -admin 127.0.0.1:7700            # per-stage latency histograms: p50/p90/p99
//	tpsctl trace -admin 127.0.0.1:7700              # list traced events on the peer
//	tpsctl trace -admin a:7700,b:7700 <event-id>    # merge hop records from several peers
//	                                                # into one end-to-end trace
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/core/engine"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/obs/admin"
	"github.com/tps-p2p/tps/internal/obs/hist"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:0", "local TCP listen address")
		seeds  = flag.String("seed", "", "comma-separated rendezvous addresses (required)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr,
			"usage: tpsctl [flags] listen <type-path> | stats | peers | subs | log | replicas | watch | latency | trace [event-id]")
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "stats", "peers", "subs", "log", "replicas", "watch", "latency", "trace":
		err = adminCommand(cmd, args, *seeds)
	default:
		err = run(cmd, args, *listen, *seeds)
	}
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

// adminCommand serves the HTTP/JSON subcommands. Flags are accepted
// after the subcommand ("tpsctl stats -seed tcp://rdv:9701"); a -seed
// given before it is inherited as the default.
func adminCommand(cmd string, args []string, globalSeed string) error {
	fs := flag.NewFlagSet("tpsctl "+cmd, flag.ExitOnError)
	adminAddr := fs.String("admin", "", "admin endpoint host:port")
	seed := fs.String("seed", globalSeed,
		fmt.Sprintf("rendezvous address tcp://host:port; its host derives the admin address on port %d", admin.DefaultPort))
	interval := fs.Duration("interval", 2*time.Second, "poll interval (watch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cmd == "trace" {
		// trace accepts several admin endpoints (comma-separated) and
		// merges their hop records into one end-to-end view.
		bases, err := adminBases(*adminAddr, *seed)
		if err != nil {
			return err
		}
		return showTrace(bases, fs.Args())
	}
	base, err := adminBase(*adminAddr, *seed)
	if err != nil {
		return err
	}
	switch cmd {
	case "stats":
		return showStats(base)
	case "peers":
		return showPeers(base)
	case "subs":
		return showSubs(base)
	case "log":
		return showLog(base)
	case "replicas":
		return showReplicas(base)
	case "watch":
		return watchStats(base, *interval)
	case "latency":
		return showLatency(base)
	}
	return fmt.Errorf("unknown admin command %q", cmd)
}

// adminBase resolves the admin endpoint URL: -admin verbatim, else the
// -seed host with the conventional admin port.
func adminBase(adminAddr, seed string) (string, error) {
	if adminAddr != "" {
		return "http://" + adminAddr, nil
	}
	if seed == "" {
		return "", fmt.Errorf("need -admin host:port or -seed tcp://host:port")
	}
	s := strings.TrimSpace(strings.Split(seed, ",")[0])
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	host, _, err := net.SplitHostPort(s)
	if err != nil {
		host = s
	}
	return fmt.Sprintf("http://%s:%d", host, admin.DefaultPort), nil
}

// adminBases resolves a comma-separated -admin list (or the single
// seed-derived address) into base URLs.
func adminBases(adminAddr, seed string) ([]string, error) {
	if adminAddr == "" {
		base, err := adminBase("", seed)
		if err != nil {
			return nil, err
		}
		return []string{base}, nil
	}
	var out []string
	for _, a := range strings.Split(adminAddr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, "http://"+a)
		}
	}
	return out, nil
}

func fetchJSON(base, path string, into any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("GET %s%s: %s", base, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func showStats(base string) error {
	var view obs.View
	if err := fetchJSON(base, "/stats", &view); err != nil {
		return err
	}
	fmt.Printf("stats (schema %d) at %s\n", view.Schema,
		time.UnixMilli(view.TakenAtMS).Format(time.RFC3339))
	for _, s := range view.Subsystems {
		fmt.Printf("%s\n", s.Name)
		for _, k := range sortedKeys(s.Counters) {
			line := fmt.Sprintf("  %-20s %d", k, s.Counters[k])
			if r, ok := view.Rates[s.Name+"."+k]; ok && r != 0 {
				line += fmt.Sprintf("  (%.1f/s)", r)
			}
			fmt.Println(line)
		}
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Printf("  %-20s %g\n", k, s.Gauges[k])
		}
	}
	return nil
}

func showPeers(base string) error {
	var doc obs.Inspection
	if err := fetchJSON(base, "/inspect", &doc); err != nil {
		return err
	}
	fmt.Printf("peer %s: %d known peers\n", doc.PeerID, len(doc.Peers))
	fmt.Printf("%-12s %-26s %-14s %-10s %-5s %-20s %s\n", "KIND", "ADDR", "ID", "EXPIRES", "FAILS", "STATE", "GROUPS")
	for _, pe := range doc.Peers {
		state := "ok"
		if pe.Suspect {
			state = "suspect"
		}
		if pe.BreakerOpenMS > 0 {
			state = fmt.Sprintf("breaker-open %dms", pe.BreakerOpenMS)
		}
		expires := "-"
		if pe.ExpiresInMS > 0 {
			expires = (time.Duration(pe.ExpiresInMS) * time.Millisecond).Round(time.Second).String()
		}
		// A lease carries its groups; "" is every group, a mesh lease's.
		groups := make([]string, len(pe.Groups))
		for i, g := range pe.Groups {
			groups[i] = "*"
			if g != "" {
				groups[i] = short(g)
			}
		}
		fmt.Printf("%-12s %-26s %-14s %-10s %-5d %-20s %s\n",
			pe.Kind, pe.Addr, short(pe.ID), expires, pe.Fails, state, cmp.Or(strings.Join(groups, ","), "-"))
	}
	return nil
}

func showSubs(base string) error {
	var doc obs.Inspection
	if err := fetchJSON(base, "/inspect", &doc); err != nil {
		return err
	}
	if len(doc.Subscriptions) == 0 {
		fmt.Println("no subscriptions")
	} else {
		fmt.Printf("%-28s %-12s %-12s %s\n", "TYPE", "SUBSCRIBERS", "ATTACHED", "READY")
		for _, se := range doc.Subscriptions {
			fmt.Printf("%-28s %-12d %-12d %d\n", se.Type, se.Subscribers, se.Attachments, se.Ready)
		}
	}
	if len(doc.Types) > 0 {
		fmt.Printf("registered types: %s\n", strings.Join(doc.Types, ", "))
	}
	return nil
}

// showLog renders the peer's durable event log state: retained
// sequence ranges per topic, and — when the peer also tracks replay
// cursors — how far each cursor lags behind the retained tail.
func showLog(base string) error {
	var in obs.Inspection
	if err := fetchJSON(base, "/inspect", &in); err != nil {
		return err
	}
	if len(in.EventLog) == 0 && len(in.Cursors) == 0 {
		fmt.Println("no event log (peer runs without -log-dir) and no replay cursors")
		return nil
	}
	if len(in.EventLog) > 0 {
		fmt.Printf("%-28s %-22s %-10s %s\n", "TOPIC", "RETAINED", "SEGMENTS", "BYTES")
		for _, t := range in.EventLog {
			fmt.Printf("%-28s %-22s %-10d %d\n",
				short(t.Topic), fmt.Sprintf("%d..%d", t.FirstSeq, t.LastSeq), t.Segments, t.Bytes)
		}
	}
	if len(in.Cursors) > 0 {
		// Lag is computable only when this peer also retains the topic's
		// log (same admin endpoint); otherwise print the raw cursor.
		last := map[string]uint64{}
		for _, t := range in.EventLog {
			last[t.Topic] = t.LastSeq
		}
		fmt.Printf("%-28s %-14s %-12s %s\n", "GROUP", "ORIGIN", "CURSOR", "LAG")
		for _, c := range in.Cursors {
			lag := "-"
			if l, ok := last[c.Group]; ok && l >= c.Seq {
				lag = fmt.Sprintf("%d", l-c.Seq)
			}
			fmt.Printf("%-28s %-14s %-12d %s\n", short(c.Group), short(c.Origin), c.Seq, lag)
		}
	}
	return nil
}

// showReplicas renders the rendezvous replica set: each configured
// replica, when it last sent a digest, and the per-(origin, topic) lag
// between the local log and the replica's advertised tail. A replica
// that has never synced (or a peer with no replica set) is visible at a
// glance.
func showReplicas(base string) error {
	var in obs.Inspection
	if err := fetchJSON(base, "/inspect", &in); err != nil {
		return err
	}
	reps := in.Replicas
	if len(reps) == 0 {
		fmt.Println("no replica set (rendezvous runs without -replica)")
		return nil
	}
	for _, r := range reps {
		sync := "never"
		if r.LastSyncAgoMS >= 0 {
			sync = fmt.Sprintf("%s ago", (time.Duration(r.LastSyncAgoMS) * time.Millisecond).Round(time.Millisecond))
		}
		id := r.ID
		if id == "" {
			id = "-"
		}
		fmt.Printf("replica %s  id=%s  last digest: %s\n", r.Addr, short(id), sync)
		if len(r.Topics) == 0 {
			fmt.Println("  (no topic digests yet)")
			continue
		}
		fmt.Printf("  %-28s %-14s %-12s %-12s %s\n", "TOPIC", "ORIGIN", "LOCAL", "REMOTE", "LAG")
		for _, t := range r.Topics {
			lag := "-"
			if t.RemoteLast > t.LocalLast {
				lag = fmt.Sprintf("%d", t.RemoteLast-t.LocalLast)
			}
			fmt.Printf("  %-28s %-14s %-12d %-12d %s\n",
				short(t.Topic), short(t.Origin), t.LocalLast, t.RemoteLast, lag)
		}
	}
	return nil
}

// showLatency renders every per-stage latency histogram the peer
// carries: observation count, mean and upper-bound quantiles. Bucket
// bounds come from the fixed log-linear layout (≤12.5% relative error),
// so the printed quantiles are conservative upper bounds.
func showLatency(base string) error {
	var view obs.View
	if err := fetchJSON(base, "/stats", &view); err != nil {
		return err
	}
	fmt.Printf("latency (schema %d) at %s\n", view.Schema,
		time.UnixMilli(view.TakenAtMS).Format(time.RFC3339))
	gotRows := false
	fmt.Printf("%-12s %-20s %-10s %-9s %-9s %-9s %s\n",
		"SUBSYSTEM", "STAGE", "COUNT", "MEAN", "P50", "P90", "P99")
	for _, s := range view.Subsystems {
		for _, k := range sortedKeys(s.Hists) {
			h := s.Hists[k]
			if h.Count == 0 {
				continue
			}
			gotRows = true
			fmt.Printf("%-12s %-20s %-10d %-9s %-9s %-9s %s\n",
				s.Name, k, h.Count, fmtUS(h.MeanUS()),
				fmtUS(h.Quantile(0.5)), fmtUS(h.Quantile(0.9)), fmtUS(h.Quantile(0.99)))
		}
	}
	if !gotRows {
		fmt.Println("(no observations yet — histograms fill as events flow)")
	}
	return nil
}

// showTrace lists retained traced events (no args) or merges one
// event's hop records from every given admin endpoint into an ordered
// end-to-end trace. Peers that saw nothing contribute nothing; peers
// without a trace store (404) are warned about and skipped.
func showTrace(bases []string, args []string) error {
	if len(args) == 0 {
		listed := false
		for _, base := range bases {
			var doc struct {
				Events []trace.EventSummary `json:"events"`
			}
			if err := fetchJSON(base, "/trace", &doc); err != nil {
				fmt.Fprintf(os.Stderr, "warn: %s: %v\n", base, err)
				continue
			}
			if !listed {
				fmt.Printf("%-52s %-6s %s\n", "EVENT", "HOPS", "FIRST SEEN")
				listed = true
			}
			for _, ev := range doc.Events {
				fmt.Printf("%-52s %-6d %s\n", ev.EventID, ev.Hops,
					time.UnixMicro(ev.FirstUS).Format(time.RFC3339))
			}
		}
		if !listed {
			return fmt.Errorf("no admin endpoint served /trace (peers need a trace store; raise TraceRate)")
		}
		return nil
	}
	eventID := args[0]
	var hops []trace.Hop
	for _, base := range bases {
		var doc struct {
			Hops []trace.Hop `json:"hops"`
		}
		if err := fetchJSON(base, "/trace/"+eventID, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "warn: %s: %v\n", base, err)
			continue
		}
		hops = append(hops, doc.Hops...)
	}
	tr := trace.Assemble(eventID, hops)
	if len(tr.Hops) == 0 {
		return fmt.Errorf("no hops recorded for %s on %d peer(s)", eventID, len(bases))
	}
	fmt.Printf("event %s\n", tr.EventID)
	if tr.SentUS != 0 {
		fmt.Printf("published %s\n", time.UnixMicro(tr.SentUS).Format(time.RFC3339Nano))
	}
	fmt.Printf("%-9s %-14s %-12s %s\n", "STAGE", "PEER", "OFFSET", "PATH")
	for _, h := range tr.Hops {
		offset := "-"
		if tr.SentUS != 0 {
			// Cross-peer clock skew can make this negative; print it raw.
			offset = fmtUSSigned(float64(h.AtUS - tr.SentUS))
		}
		path := "-"
		if len(h.Path) > 0 {
			parts := make([]string, len(h.Path))
			for i, p := range h.Path {
				parts[i] = short(p)
			}
			path = strings.Join(parts, " > ")
		}
		fmt.Printf("%-9s %-14s %-12s %s\n", h.Stage, short(h.Peer), offset, path)
	}
	return nil
}

// fmtUS renders a microsecond quantity at a human scale.
func fmtUS(us float64) string {
	switch {
	case math.IsInf(us, 1):
		return "inf"
	case us < 1000:
		return fmt.Sprintf("%dµs", int64(us))
	case us < 1e6:
		return fmt.Sprintf("%.1fms", us/1000)
	default:
		return fmt.Sprintf("%.2fs", us/1e6)
	}
}

func fmtUSSigned(us float64) string {
	if us < 0 {
		return "-" + fmtUS(-us)
	}
	return "+" + fmtUS(us)
}

// watchStats polls /stats and prints the counters that moved between
// polls, one line per change, until interrupted. Latency histograms are
// differenced the same way: the per-interval delta distribution yields
// a p99 for exactly the events of that interval, not a lifetime blend.
func watchStats(base string, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	prev := map[string]int64{}
	prevHists := map[string]hist.Snapshot{}
	first := true
	for {
		var view obs.View
		if err := fetchJSON(base, "/stats", &view); err != nil {
			return err
		}
		cur := map[string]int64{}
		curHists := map[string]hist.Snapshot{}
		for _, s := range view.Subsystems {
			for k, v := range s.Counters {
				cur[s.Name+"."+k] = v
			}
			for k, h := range s.Hists {
				curHists[s.Name+"."+k] = h
			}
		}
		if first {
			fmt.Printf("watching %s/stats every %v (ctrl-C to stop)\n", base, interval)
			first = false
		} else {
			var lines []string
			for _, k := range sortedKeys(cur) {
				if d := cur[k] - prev[k]; d != 0 {
					lines = append(lines, fmt.Sprintf("%s +%d (%.1f/s)",
						k, d, float64(d)/interval.Seconds()))
				}
			}
			for _, k := range sortedKeys(curHists) {
				if d := hist.Delta(curHists[k], prevHists[k]); d.Count > 0 {
					lines = append(lines, fmt.Sprintf("%s p99=%s (n=%d)",
						k, fmtUS(d.Quantile(0.99)), d.Count))
				}
			}
			// A failover is an operator-grade event, not background
			// counter noise: lead the line with it.
			if d := cur["rendezvous.failovers"] - prev["rendezvous.failovers"]; d > 0 {
				lines = append([]string{fmt.Sprintf("FAILOVER: rendezvous switched active seed ×%d", d)}, lines...)
			}
			if len(lines) == 0 {
				lines = []string{"idle"}
			}
			fmt.Printf("%s  %s\n", time.Now().Format("15:04:05"), strings.Join(lines, "  "))
		}
		prev = cur
		prevHists = curHists
		select {
		case <-ticker.C:
		case <-stop:
			return nil
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func short(id string) string {
	if i := strings.LastIndex(id, ":"); i >= 0 && len(id)-i > 1 {
		id = id[i+1:]
	}
	if len(id) > 12 {
		return id[:12]
	}
	if id == "" {
		return "-"
	}
	return id
}

func run(cmd string, args []string, listen, seeds string) error {
	if seeds == "" {
		return fmt.Errorf("-seed is required")
	}
	tr, err := tcpnet.Listen(listen)
	if err != nil {
		return err
	}
	var seedAddrs []endpoint.Address
	for _, s := range strings.Split(seeds, ",") {
		seedAddrs = append(seedAddrs, endpoint.Address(strings.TrimSpace(s)))
	}
	p, err := peer.New(peer.Config{Name: "tpsctl", Rendezvous: rendezvous.Config{Seeds: seedAddrs}}, tr)
	if err != nil {
		return err
	}
	defer p.Close()
	if !p.Rendezvous().AwaitConnected(jid.NetGroup.String(), 10*time.Second) {
		return fmt.Errorf("no rendezvous reachable at %s", seeds)
	}

	switch cmd {
	case "listen":
		if len(args) != 1 {
			return fmt.Errorf("usage: tpsctl listen <type-path>")
		}
		return listenType(p, args[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// listenType joins the group of the type registered under path — named
// by the path, as every engine names it — and prints every event that
// crosses it until interrupted. It reads the group's frames as an engine
// does: with a handler for engine.EventService under the group's
// parameter, beside a lease for the group.
func listenType(p *peer.Peer, path string) error {
	groupID := engine.TypeGroup(path)
	param := groupID.String()
	err := p.Endpoint().RegisterHandler(engine.EventService, param, func(m *message.Message, _ endpoint.Address) {
		fmt.Printf("[%s] event %s from %s, %d elements, %d bytes\n",
			path, m.ID.Short(), m.Src.Short(), m.Len(), m.WireSize())
	})
	if err != nil {
		return err
	}
	p.Rendezvous().Join(param)
	fmt.Printf("listening on the group of type %s (%s); ctrl-C to stop\n", path, groupID.Short())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	return nil
}
