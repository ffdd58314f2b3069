package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
)

// The traced run measures the layers from outside the program: every
// peer's tcpnet is wrapped by a tap that records a span around each Send
// and around each receiver callback (endpoint decode + handler, run
// synchronously by tcpnet's reader), and the bench records spans around
// its own Publish calls and subscription callbacks. Spans stay in memory
// until the run ends. End-to-end metrics are never taken from this run.

type spanKind uint8

const (
	spanPublish  spanKind = iota // pub.publish: the bench's Publish call
	spanSend                     // <peer>.tcpnet.send: Transport.Send (enqueue + copy)
	spanRecv                     // <peer>.recv: the receiver callback
	spanCallback                 // sub.callback: the bench's subscription callback
)

type span struct {
	kind       spanKind
	start, end int64  // nanoseconds since base
	key        uint64 // send/recv: identifies the frame and its destination
	seq        int64  // event sequence number, -1 until known
}

// tracer owns the taps of one traced run.
type tracer struct {
	seed maphash.Seed
	mu   sync.Mutex
	taps []*tap
}

func newTracer() *tracer { return &tracer{seed: maphash.MakeSeed()} }

// tap is a tps.Transport that records spans around the transport it
// wraps.
type tap struct {
	inner      tps.Transport
	tr         *tracer
	name, role string
	self       uint64 // hash of the local host:port

	mu    sync.Mutex
	spans []span
}

var _ tps.Transport = (*tap)(nil)

func (tr *tracer) wrap(name, role string, inner tps.Transport) *tap {
	t := &tap{inner: inner, tr: tr, name: name, role: role}
	t.self = maphash.String(tr.seed, inner.LocalAddress().Host())
	tr.mu.Lock()
	tr.taps = append(tr.taps, t)
	tr.mu.Unlock()
	return t
}

func (t *tap) span(kind spanKind, start, end int64, key uint64, seq int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, start: start, end: end, key: key, seq: seq})
	t.mu.Unlock()
}

func (t *tap) Scheme() string                 { return t.inner.Scheme() }
func (t *tap) LocalAddress() endpoint.Address { return t.inner.LocalAddress() }
func (t *tap) Close() error                   { return t.inner.Close() }

// Send and the receiver below key a frame by its bytes and destination:
// tcpnet delivers the bytes it was given, and a fan-out sends one frame
// to many hosts, so the pair identifies one hop of one frame.
func (t *tap) Send(to endpoint.Address, frame []byte) error {
	start := nowNS()
	err := t.inner.Send(to, frame)
	end := nowNS()
	key := maphash.Bytes(t.tr.seed, frame) ^ maphash.String(t.tr.seed, to.Host())
	t.span(spanSend, start, end, key, -1)
	return err
}

func (t *tap) SetReceiver(recv func(frame []byte)) {
	t.inner.SetReceiver(func(frame []byte) {
		key := maphash.Bytes(t.tr.seed, frame) ^ t.self
		start := nowNS()
		recv(frame)
		t.span(spanRecv, start, nowNS(), key, -1)
	})
}

// node is a span placed in its trace tree.
type node struct {
	span
	tap      *tap
	parent   *node   // the span that caused it: enclosing span, or for a recv the remote send
	children []*node // spans it encloses on the same peer
}

func (n *node) dur() int64 { return n.end - n.start }

// self is the span's duration minus what its children cover.
func (n *node) self() int64 {
	d := n.dur()
	for _, c := range n.children {
		d -= c.dur()
	}
	return d
}

func (n *node) name() string {
	switch n.kind {
	case spanPublish:
		return "pub.publish"
	case spanSend:
		return n.tap.name + ".tcpnet.send"
	case spanRecv:
		return n.tap.name + ".recv"
	default:
		return "sub.callback"
	}
}

// assemble links the recorded spans into trees. A send or callback whose
// interval lies inside a recv (or publish) on the same peer is its
// child — the innermost one, since a peer runs one reader per inbound
// connection. A recv's parent is the send, on another peer, of the same
// frame to this host. Sequence numbers flow from the publish and
// callback spans, which know them, along those links.
func (tr *tracer) assemble() []*node {
	var all []*node
	sends := make(map[uint64]*node)
	for _, t := range tr.taps {
		t.mu.Lock()
		nodes := make([]*node, len(t.spans))
		for i, s := range t.spans {
			nodes[i] = &node{span: s, tap: t}
		}
		t.mu.Unlock()
		sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].start < nodes[j].start })
		var containers []*node
		for _, n := range nodes {
			switch n.kind {
			case spanPublish, spanRecv:
				containers = append(containers, n)
			}
		}
		// Spans are recorded when they end, so a container is appended
		// after its children; sorted by start it precedes them.
		ci := 0
		for _, n := range nodes {
			if n.kind == spanSend {
				sends[n.key] = n
			}
			if n.kind != spanSend && n.kind != spanCallback {
				continue
			}
			for ci < len(containers) && containers[ci].start <= n.start {
				ci++
			}
			// Look back a few containers: readers overlap only a little.
			for k := ci - 1; k >= 0 && k >= ci-16; k-- {
				if c := containers[k]; c.end >= n.end {
					n.parent = c
					c.children = append(c.children, n)
					break
				}
			}
		}
		all = append(all, nodes...)
	}
	for _, n := range all {
		if n.kind == spanRecv {
			n.parent = sends[n.key]
		}
	}
	// publish → its send → rendezvous recv → its sends → subscriber recv;
	// a callback names its recv directly (covers replayed frames too).
	for pass := 0; pass < 3; pass++ {
		for _, n := range all {
			switch {
			case n.kind == spanCallback && n.parent != nil && n.parent.seq < 0:
				n.parent.seq = n.seq
			case n.seq < 0 && n.parent != nil && n.parent.seq >= 0:
				n.seq = n.parent.seq
			}
		}
	}
	return all
}

// traceMetrics are the per-layer numbers the span trees give. Interval
// containment can adopt an unrelated send that another goroutine of the
// peer made meanwhile (anti-entropy serving on a replica does it
// constantly), so the medians use only links that cannot be mistaken: a
// rendezvous recv of a frame the publisher sent from inside Publish, and
// a subscriber recv that contains the bench's observation.
func traceMetrics(all []*node) map[string]metric {
	var pubSelf, rdvSelf, engSelf, transit []float64
	var rdvSends int
	for _, n := range all {
		switch {
		case n.kind == spanPublish:
			pubSelf = append(pubSelf, float64(n.self())/1e3)
		case n.kind != spanRecv || n.parent == nil:
		case n.tap.role == "rendezvous" && n.parent.parent != nil && n.parent.parent.kind == spanPublish:
			transit = append(transit, float64(n.start-n.parent.start)/1e3)
			rdvSelf = append(rdvSelf, float64(n.self())/1e3)
			rdvSends += len(n.children)
		case n.observed():
			transit = append(transit, float64(n.start-n.parent.start)/1e3)
			engSelf = append(engSelf, float64(n.self())/1e3)
		}
	}
	return map[string]metric{
		"tps.publish_self_p50_us":     {percentile(pubSelf, 50), "us"},
		"rendezvous.recv_self_p50_us": {percentile(rdvSelf, 50), "us"},
		"rendezvous.sends_per_recv":   {float64(rdvSends) / float64(max(len(rdvSelf), 1)), "count"},
		"engine.recv_self_p50_us":     {percentile(engSelf, 50), "us"},
		"tcpnet.transit_p50_us":       {percentile(transit, 50), "us"},
	}
}

// observed reports whether the bench's subscription callback ran inside
// this recv.
func (n *node) observed() bool {
	for _, c := range n.children {
		if c.kind == spanCallback {
			return true
		}
	}
	return false
}

// traceFileEvents is how many events' span trees go into the trace
// file, and traceFileSpans caps the spans (on catch-up every joiner
// receives every event again); the rest of the run only feeds the
// medians.
const (
	traceFileEvents = 500
	traceFileSpans  = 20000
)

type spanJSON struct {
	Name    string `json:"name"`
	Peer    string `json:"peer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into spans, -1 for a root
	Seq     int64  `json:"seq"`
}

// writeTrace writes the span trees of traceFileEvents events from the
// middle of the run.
func writeTrace(path string, e env, all []*node, published uint64) error {
	from := int64(published / 2)
	var picked []*node
	for _, n := range all {
		if n.seq >= from && n.seq < from+traceFileEvents {
			picked = append(picked, n)
		}
	}
	sort.SliceStable(picked, func(i, j int) bool { return picked[i].start < picked[j].start })
	picked = picked[:min(len(picked), traceFileSpans)]
	index := make(map[*node]int, len(picked))
	for i, n := range picked {
		index[n] = i
	}
	out := struct {
		Env           env        `json:"env"`
		SpansRecorded int        `json:"spans_recorded"`
		Note          string     `json:"note"`
		Spans         []spanJSON `json:"spans"`
	}{Env: e, SpansRecorded: len(all),
		Note: fmt.Sprintf("span trees of events %d..%d, the first %d spans at most; times are ns since process start", from, from+traceFileEvents-1, traceFileSpans)}
	for _, n := range picked {
		parent := -1
		if i, ok := index[n.parent]; ok && n.parent != nil {
			parent = i
		}
		out.Spans = append(out.Spans, spanJSON{n.name(), n.tap.name, n.start, n.end, parent, n.seq})
	}
	return writeJSON(path, out)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hopMetrics reads the program's own sampled hop trace from every peer's
// admin endpoint (/trace) and reports publish→forward and
// forward→deliver medians. All peers share one clock, so the hop stamps
// subtract directly.
func hopMetrics(peers []*peer) map[string]metric {
	const maxEvents = 64
	type hop struct {
		Stage  string `json:"stage"`
		AtUS   int64  `json:"at_us"`
		SentUS int64  `json:"sent_us"`
	}
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	get := func(addr, path string, into any) bool {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(into) == nil
	}
	var toForward, toDeliver []float64
	var pubAddr string
	for _, pr := range peers {
		if pr.role == "publisher" {
			pubAddr = pr.p.AdminAddr()
		}
	}
	var list struct {
		Events []struct {
			EventID string `json:"event_id"`
		} `json:"events"`
	}
	if pubAddr != "" {
		get(pubAddr, "/trace", &list)
	}
	if len(list.Events) > maxEvents {
		list.Events = list.Events[len(list.Events)-maxEvents:]
	}
	for _, ev := range list.Events {
		var sent, forward int64
		var delivers []int64
		for _, pr := range peers {
			var doc struct {
				Hops []hop `json:"hops"`
			}
			if !get(pr.p.AdminAddr(), "/trace/"+ev.EventID, &doc) {
				continue
			}
			for _, h := range doc.Hops {
				switch h.Stage {
				case "publish":
					sent = h.SentUS
				case "forward":
					if forward == 0 || h.AtUS < forward {
						forward = h.AtUS
					}
				case "deliver":
					if pr.role != "publisher" { // the publisher's own loopback
						delivers = append(delivers, h.AtUS)
					}
				}
			}
		}
		if sent == 0 || forward == 0 {
			continue
		}
		toForward = append(toForward, float64(forward-sent))
		for _, at := range delivers {
			toDeliver = append(toDeliver, float64(at-forward))
		}
	}
	return map[string]metric{
		"trace.publish_to_forward_p50_us": {percentile(toForward, 50), "us"},
		"trace.forward_to_deliver_p50_us": {percentile(toDeliver, 50), "us"},
	}
}
