package rendezvous

import (
	"fmt"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// TestTickSendsOneConnectPerGroupAndSeed pins the control traffic of a
// renewal: one tick of an edge in k groups with s seeds is k·s connects,
// k under ActiveStandby, and a peer with no seeds sends nothing.
func TestTickSendsOneConnectPerGroupAndSeed(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	connects := func(outs []output) (n int) {
		for _, o := range outs {
			if o.kind == outSend && o.op == opConnect {
				n++
			}
		}
		return n
	}
	seeds := []endpoint.Address{"s0", "s1", "s2"}
	for _, as := range []bool{false, true} {
		cfg := Config{Role: RoleEdge, Seeds: seeds, ActiveStandby: as}
		cfg.normalise()
		c := newCore(&cfg, 1)
		groups := []string{"net", "g0", "g1", "g2"}
		for _, g := range groups {
			c.step(now, input{kind: inJoin, group: g}, nil)
		}
		want := len(groups) * len(seeds)
		if as {
			want = len(groups)
		}
		if got := connects(c.step(now, input{kind: inTick}, nil)); got != want {
			t.Errorf("ActiveStandby %v: a tick sent %d connects, want %d", as, got, want)
		}
	}
	for _, role := range []Role{RoleRendezvous, RoleEdge} {
		// ActiveStandby with no seed to elect is a configuration a peer
		// must survive.
		cfg := Config{Role: role, ActiveStandby: true}
		cfg.normalise()
		c := newCore(&cfg, 1)
		c.step(now, input{kind: inJoin, group: "g"}, nil)
		c.step(now, input{kind: inGrant, from: "r", src: jid.FromSeed(jid.KindPeer, 9), group: "g", lease: 1000, epoch: 1}, nil)
		if outs := c.step(now, input{kind: inTick}, nil); len(outs) != 0 {
			t.Errorf("a %v with no seeds ticked out %v", role, outs)
		}
	}
}

// BenchmarkRenewal is what a renewal costs a rendezvous that 1000
// clients lease 10 groups each with: a client's connect for one group,
// and a neighbour rendezvous' connect for "", which carries every group.
func BenchmarkRenewal(b *testing.B) {
	now := time.Unix(1_000_000, 0)
	cfg := Config{Role: RoleRendezvous}
	cfg.normalise()
	c := newCore(&cfg, 1)
	connect := func(peer int, group string) input {
		id := jid.FromSeed(jid.KindPeer, uint64(peer))
		return input{kind: inConnect, from: endpoint.Address(fmt.Sprint("tcp://10.0.0.1:", peer)), src: id, group: group, seed: 1}
	}
	var clients []input
	for p := range 1000 {
		for g := range 10 {
			clients = append(clients, connect(p+1, fmt.Sprint("g", g)))
		}
	}
	mesh := connect(1001, "")
	for _, in := range append(clients, mesh) {
		c.step(now, in, nil)
	}
	out := make([]output, 0, 1)
	b.Run("client", func(b *testing.B) {
		for i := range b.N {
			out = c.step(now, clients[i%len(clients)], out[:0])
		}
	})
	b.Run("mesh", func(b *testing.B) {
		for range b.N {
			out = c.step(now, mesh, out[:0])
		}
	})
}
