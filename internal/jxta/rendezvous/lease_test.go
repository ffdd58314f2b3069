package rendezvous_test

import (
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

// opFrame is the frame peer id at addr sends for a rendezvous op in the
// given group.
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
// each as it arrived — the address, or the group a lease is keyed by —
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
		connects[i] = opFrame(t, id, addr, group(i), "connect", func(m *message.Message) { m.AddUint64("rdv", "Seed", 1) })
		grants[i] = opFrame(t, id, addr, group(i), "lease", func(m *message.Message) {
			m.AddUint64("rdv", "Seed", 1)
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

	if c, r := len(rdv.ConnectedClients()), len(edge.ConnectedRendezvous("")); c != peers || r != peers {
		t.Fatalf("%d clients and %d rendezvous leased, want %d of each", c, r, peers)
	}
	for _, pe := range append(rdv.PeersView(), edge.PeersView()...) {
		if !strings.HasPrefix(pe.Addr, "hand://10.0.") || !strings.HasPrefix(pe.Group, "urn:jxta:group-") {
			t.Fatalf("lease entry %+v", pe)
		}
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Fatalf("heap grew by %d kB over %d leases renewed %d times: the tables keep the frames alive", grew>>10, 2*peers, rounds-1)
	}
}

// FuzzControlFrame feeds one rendezvous op of any name, group, Seed,
// Lease and Epoch bytes and source to an edge joined to g and to a
// rendezvous. No frame may panic either, and a lease table may change
// only on a well-formed op that owns it: the rendezvous' on a connect
// whose Seed is 8 bytes or a disconnect, the edge's on a grant for g
// whose Seed, Lease and Epoch are 8 bytes each, the Lease not zero.
func FuzzControlFrame(f *testing.F) {
	one := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	f.Add("connect", "g", one, []byte{}, []byte{}, uint64(7))
	f.Add("connect", "g", []byte{}, []byte{}, []byte{}, uint64(6))
	f.Add("lease", "g", one, []byte{0, 0, 0, 0, 0, 0, 0xea, 0x60}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(7))
	f.Add("lease", "g", one[1:], []byte{0, 0, 0, 0, 0, 0, 0xea, 0x60}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(5))
	f.Add("lease", "g", one, []byte{0, 0, 0, 0, 0, 0, 0xea, 0x60}, []byte{1, 2, 3, 4, 5, 6, 7}, uint64(1))
	f.Add("lease", "x", one, []byte{0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint64(9))
	f.Add("disconnect", "g", []byte{}, []byte{}, []byte{}, uint64(7))
	f.Add("pong", "", []byte{}, []byte{9}, []byte{}, uint64(3))
	serve := func(role rendezvous.Role) (*rendezvous.Service, *handFed) {
		tr := &handFed{addr: "hand://self"}
		ep := endpoint.New(jid.FromSeed(jid.KindPeer, 1))
		if err := ep.AddTransport(tr); err != nil {
			f.Fatal(err)
		}
		svc, err := rendezvous.New(ep, rendezvous.Config{Role: role, LeaseTTL: time.Minute})
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
	// table lists a service's leases by kind, peer, group and address.
	table := func(svc *rendezvous.Service) string {
		var rows []string
		for _, pe := range svc.PeersView() {
			rows = append(rows, fmt.Sprintf("%s %s %q %s", pe.Kind, pe.ID, pe.Group, pe.Addr))
		}
		slices.Sort(rows)
		return strings.Join(rows, "\n")
	}
	f.Fuzz(func(t *testing.T, op, group string, seed, lease, epoch []byte, src uint64) {
		seed, lease, epoch = seed[:min(len(seed), 9)], lease[:min(len(lease), 9)], epoch[:min(len(epoch), 9)]
		frame := opFrame(t, jid.FromSeed(jid.KindPeer, src), endpoint.Address(fmt.Sprintf("hand://peer-%d", src%4)), group, op,
			func(m *message.Message) {
				if len(seed) > 0 {
					m.AddBytes("rdv", "Seed", seed)
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
		if !(op == "connect" && len(seed) == 8) && op != "disconnect" && table(rdv) != rdvBefore {
			t.Fatalf("a %q op, Seed %x, changed the rendezvous' leases", op, seed)
		}
		grant := op == "lease" && group == "g" && len(seed) == 8 && len(lease) == 8 && len(epoch) == 8 && binary.BigEndian.Uint64(lease) != 0
		if !grant && table(edge) != edgeBefore {
			t.Fatalf("a %q op for %q, Seed %x, Lease %x and Epoch %x, changed the edge's leases", op, group, seed, lease, epoch)
		}
	})
}
