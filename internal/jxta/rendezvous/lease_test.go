package rendezvous_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
)

// handFed is a transport the test feeds frames into by hand; what is
// sent through it goes nowhere.
type handFed struct {
	addr endpoint.Address
	recv func(frame []byte)
}

func (h *handFed) Scheme() string                      { return "hand" }
func (h *handFed) LocalAddress() endpoint.Address      { return h.addr }
func (h *handFed) Send(endpoint.Address, []byte) error { return nil }
func (h *handFed) SetReceiver(recv func(frame []byte)) { h.recv = recv }
func (h *handFed) Close() error                        { return nil }

// groupSet is the wire form of a sorted group set: each name, then a
// NUL byte.
func groupSet(groups ...string) []byte {
	var b []byte
	for _, g := range groups {
		b = append(append(b, g...), 0)
	}
	return b
}

// opFrame is the frame peer id at addr sends for a rendezvous op
// addressed to the given group.
func opFrame(t *testing.T, id jid.ID, addr endpoint.Address, group, op string, build func(*message.Message)) []byte {
	t.Helper()
	ep := endpoint.New(id)
	defer ep.Close()
	if err := ep.AddTransport(&handFed{addr: addr}); err != nil {
		t.Fatal(err)
	}
	m := message.New(id)
	m.AddString("rdv", "Op", op)
	if build != nil {
		build(m)
	}
	frame, err := ep.EncodeFrame(rendezvous.ServiceName, group, m)
	if err != nil {
		t.Fatal(err)
	}
	defer endpoint.RecycleFrame(frame)
	return append([]byte(nil), frame...)
}

// TestLeasesDoNotPinFrames: a received frame is a piece of a 64 kB read
// chunk, its strings are pieces of the frame, and a lease table lives as
// long as its peers stay. 2 000 peers connect and renew three times,
// every frame in a chunk of its own: were a table to keep one string of
// each as it arrived — the address, or a group of the lease's set —
// 128 MB of chunks would stay behind. Both tables are held to it, the
// clients of a rendezvous and the rendezvous of an edge.
func TestLeasesDoNotPinFrames(t *testing.T) {
	const peers, rounds, chunk = 2000, 4, 64 << 10
	serve := func(role rendezvous.Role) (*rendezvous.Service, *handFed) {
		tr := &handFed{addr: "hand://self"}
		ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
		if err := ep.AddTransport(tr); err != nil {
			t.Fatal(err)
		}
		svc, err := rendezvous.New(ep, rendezvous.Config{Role: role, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			svc.Close()
			_ = ep.Close()
		})
		return svc, tr
	}
	rdv, rdvIn := serve(rendezvous.RoleRendezvous)
	edge, edgeIn := serve(rendezvous.RoleEdge)
	group := func(i int) string { return fmt.Sprintf("urn:jxta:group-%d", i%7) }
	for i := 0; i < 7; i++ {
		edge.Join(group(i))
	}

	connects, grants := make([][]byte, peers), make([][]byte, peers)
	for i := range connects {
		id, addr := jid.FromSeed(jid.KindPeer, uint64(100+i)), endpoint.Address(fmt.Sprintf("hand://10.0.%d.%d:9701", i/250, i%250))
		connects[i] = opFrame(t, id, addr, "", "connect", func(m *message.Message) {
			m.AddUint64("rdv", "Seed", 1)
			m.AddBytes("rdv", "Groups", groupSet(group(i)))
			m.AddUint64("rdv", "Epoch", 0)
		})
		grants[i] = opFrame(t, id, addr, "", "lease", func(m *message.Message) {
			m.AddUint64("rdv", "Seed", 1)
			m.AddBytes("rdv", "Groups", groupSet(group(i)))
			m.AddUint64("rdv", "Lease", 60_000)
			m.AddUint64("rdv", "Epoch", 1)
		})
	}
	feed := func(in *handFed, frame []byte) {
		buf := make([]byte, chunk)
		n := copy(buf, frame)
		in.recv(buf[:n:n])
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for round := 0; round < rounds; round++ {
		for i := range connects {
			feed(rdvIn, connects[i])
			feed(edgeIn, grants[i])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	rdvs, edges := rdv.PeersView(), edge.PeersView()
	if len(rdvs) != peers || len(edges) != peers {
		t.Fatalf("%d clients and %d rendezvous leased, want %d of each", len(rdvs), len(edges), peers)
	}
	for _, pe := range append(rdvs, edges...) {
		if !strings.HasPrefix(pe.Addr, "hand://10.0.") || len(pe.Groups) != 1 || !strings.HasPrefix(pe.Groups[0], "urn:jxta:group-") {
			t.Fatalf("lease entry %+v", pe)
		}
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Fatalf("heap grew by %d kB over %d leases renewed %d times: the tables keep the frames alive", grew>>10, 2*peers, rounds-1)
	}
}

// setOf decodes the wire form of a group set: from one to 1024 names,
// each ended by a NUL byte, in strictly increasing order.
func setOf(b []byte) (set []string, ok bool) {
	for len(b) > 0 {
		end := bytes.IndexByte(b, 0)
		if end < 0 {
			return nil, false
		}
		g := string(b[:end])
		if len(set) > 0 && g <= set[len(set)-1] {
			return nil, false
		}
		set, b = append(set, g), b[end+1:]
	}
	return set, len(set) > 0 && len(set) <= 1024
}

// FuzzControlFrame feeds one rendezvous op of any name, addressed to any
// group, with any Seed, Groups, Lease and Epoch bytes and source, to an
// edge joined to g and to a rendezvous. No frame may panic either, and
// a lease table may change only on a well-formed op that owns it: the
// rendezvous' on a connect whose Seed and Epoch are 8 bytes each and
// whose Groups is a well-formed set, on a disconnect, or on a grant for
// a set that holds "" or from a peer it holds a lease with; the edge's
// on a grant for a set that holds g or "" or from a peer it holds a
// lease with, and its leases cover g alone. A grant is well-formed when
// its Seed, Lease and Epoch are 8 bytes each, the Lease is not zero, and
// its Groups is a well-formed set.
func FuzzControlFrame(f *testing.F) {
	one := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	ms := []byte{0, 0, 0, 0, 0, 0, 0xea, 0x60}
	zero := make([]byte, 8)
	tooMany := make([]string, 1025)
	for i := range tooMany {
		tooMany[i] = fmt.Sprintf("%04d", i)
	}
	f.Add("connect", "", one, groupSet("g"), []byte{}, zero, uint64(7))
	f.Add("connect", "g", []byte{}, groupSet("g"), []byte{}, zero, uint64(6))
	f.Add("connect", "", one, groupSet("g", "f"), []byte{}, zero, uint64(6))
	f.Add("connect", "", one, groupSet("f", "g")[:3], []byte{}, zero, uint64(6))
	f.Add("connect", "", one, []byte{0, 0}, []byte{}, zero, uint64(6))
	f.Add("connect", "", one, []byte{0xff, 0xff}, []byte{}, zero, uint64(6))
	f.Add("connect", "", one, groupSet("g"), []byte{}, []byte{}, uint64(6))
	f.Add("connect", "", one, groupSet(tooMany...), []byte{}, zero, uint64(6))
	f.Add("lease", "", one, groupSet("f", "g"), ms, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(7))
	f.Add("lease", "", one[1:], groupSet("g"), ms, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(5))
	f.Add("lease", "", one, groupSet("g"), ms, []byte{1, 2, 3, 4, 5, 6, 7}, uint64(1))
	f.Add("lease", "", one, groupSet(""), []byte{0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint64(9))
	f.Add("lease", "", one, groupSet("g", "g"), ms, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint64(9))
	f.Add("disconnect", "g", []byte{}, []byte{}, []byte{}, []byte{}, uint64(7))
	f.Add("pong", "", []byte{}, []byte{}, []byte{9}, []byte{}, uint64(3))
	start := time.Now()
	serve := func(role rendezvous.Role) (*rendezvous.Service, *handFed) {
		tr := &handFed{addr: "hand://self"}
		ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
		if err := ep.AddTransport(tr); err != nil {
			f.Fatal(err)
		}
		// The clock stands still: a short grant never lapses between two
		// looks at the tables.
		svc, err := rendezvous.New(ep, rendezvous.Config{Role: role, LeaseTTL: time.Minute, Clock: func() time.Time { return start }})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() {
			svc.Close()
			_ = ep.Close()
		})
		return svc, tr
	}
	rdv, rdvIn := serve(rendezvous.RoleRendezvous)
	edge, edgeIn := serve(rendezvous.RoleEdge)
	edge.Join("g")
	// table lists a service's leases by kind, peer, groups and address.
	table := func(svc *rendezvous.Service) string {
		var rows []string
		for _, pe := range svc.PeersView() {
			rows = append(rows, fmt.Sprintf("%s %s %q %s", pe.Kind, pe.ID, pe.Groups, pe.Addr))
		}
		slices.Sort(rows)
		return strings.Join(rows, "\n")
	}
	f.Fuzz(func(t *testing.T, op, group string, seed, groups, lease, epoch []byte, src uint64) {
		seed, lease, epoch = seed[:min(len(seed), 9)], lease[:min(len(lease), 9)], epoch[:min(len(epoch), 9)]
		frame := opFrame(t, jid.FromSeed(jid.KindPeer, src), endpoint.Address(fmt.Sprintf("hand://peer-%d", src%4)), group, op,
			func(m *message.Message) {
				if len(seed) > 0 {
					m.AddBytes("rdv", "Seed", seed)
				}
				if len(groups) > 0 {
					m.AddBytes("rdv", "Groups", groups)
				}
				if len(lease) > 0 {
					m.AddBytes("rdv", "Lease", lease)
				}
				if len(epoch) > 0 {
					m.AddBytes("rdv", "Epoch", epoch)
				}
			})
		rdvBefore, edgeBefore := table(rdv), table(edge)
		rdvIn.recv(append([]byte(nil), frame...))
		edgeIn.recv(append([]byte(nil), frame...))
		set, okSet := setOf(groups)
		grant := op == "lease" && len(seed) == 8 && len(lease) == 8 && len(epoch) == 8 && binary.BigEndian.Uint64(lease) != 0 && okSet
		connect := op == "connect" && len(seed) == 8 && len(epoch) == 8 && okSet
		// A grant renews a lease the source already holds, whatever set
		// it names.
		held := func(before string) bool { return strings.Contains(before, jid.FromSeed(jid.KindPeer, src).String()) }
		if !connect && op != "disconnect" && !(grant && (slices.Contains(set, "") || held(rdvBefore))) && table(rdv) != rdvBefore {
			t.Fatalf("a %q op, Seed %x, Groups %x, changed the rendezvous' leases", op, seed, groups)
		}
		for _, pe := range edge.PeersView() {
			if !slices.Equal(pe.Groups, []string{"g"}) {
				t.Fatalf("the edge, in g alone, holds a lease for %q", pe.Groups)
			}
		}
		if !(grant && (slices.Contains(set, "g") || slices.Contains(set, "") || held(edgeBefore))) && table(edge) != edgeBefore {
			t.Fatalf("a %q op, Seed %x, Groups %x, Lease %x and Epoch %x, changed the edge's leases", op, seed, groups, lease, epoch)
		}
	})
}
