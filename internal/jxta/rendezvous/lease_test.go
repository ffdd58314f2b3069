package rendezvous_test

import (
	"fmt"
	"runtime"
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
		connects[i] = opFrame(t, id, addr, group(i), "connect", nil)
		grants[i] = opFrame(t, id, addr, group(i), "lease", func(m *message.Message) { m.AddUint64("rdv", "Lease", 60_000) })
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
