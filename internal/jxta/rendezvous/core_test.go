package rendezvous

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// TestTickSendsOneConnectPerSeed pins the control traffic of a renewal:
// one tick of an edge in k groups with s seeds is s connects, each
// carrying the k groups, 1 under ActiveStandby, and a peer with no seeds
// sends nothing.
func TestTickSendsOneConnectPerSeed(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	connects := func(outs []output, groups []string) (n int) {
		for _, o := range outs {
			if o.kind == outSend && o.op == opConnect {
				if !slices.Equal(o.groups, groups) {
					t.Errorf("a connect carried %q, want %q", o.groups, groups)
				}
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
		want := len(seeds)
		if as {
			want = 1
		}
		if got := connects(c.step(now, input{kind: inTick}, nil), slices.Sorted(slices.Values(groups))); got != want {
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
		c.step(now, input{kind: inGrant, from: "r", src: jid.FromSeed(jid.KindPeer, 9), groups: []string{"g"}, lease: 1000, epoch: 1}, nil)
		if outs := c.step(now, input{kind: inTick}, nil); len(outs) != 0 {
			t.Errorf("a %v with no seeds ticked out %v", role, outs)
		}
	}
}

// TestLeaveIsNotGranted: a connect that only narrows the live lease its
// client says it holds is a Leave, and the rendezvous answers it with no
// grant — the peer may be closing — while any other connect is granted.
// One that narrows a lease the client does not hold — its grants were
// lost, or it fails back to this seed — is granted at once.
func TestLeaveIsNotGranted(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	cfg := Config{Role: RoleRendezvous}
	cfg.normalise()
	c := newCore(&cfg, 1)
	id := jid.FromSeed(jid.KindPeer, 9)
	grants := func(holds bool, groups ...string) (n int) {
		in := input{kind: inConnect, from: "e", src: id, groups: groups, seed: 1}
		if e := c.clients[id]; holds && e != nil {
			in.epoch = e.epoch
		}
		for _, o := range c.step(now, in, nil) {
			if o.op == opLease {
				n++
			}
		}
		return n
	}
	for _, step := range []struct {
		holds  bool
		groups []string
		want   int
	}{
		{true, []string{"a", "b"}, 1}, {true, []string{"a"}, 0}, {true, []string{"a"}, 1}, {true, []string{"b"}, 1},
		{true, []string{"a", "b"}, 1}, {false, []string{"a"}, 1}, {false, []string{"a", "b"}, 1}, {true, []string{"a", "b"}, 1},
	} {
		if got := grants(step.holds, step.groups...); got != step.want {
			t.Fatalf("a connect for %q after the last, holding the lease %v, was answered by %d grants, want %d", step.groups, step.holds, got, step.want)
		}
	}
	if got := c.clients[jid.FromSeed(jid.KindPeer, 9)].groups; !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("the client's lease carries %q", got)
	}
}

// TestGroupSetCodec: a set comes back from its wire form as it was, one
// of maxGroups names included, and every malformed form, one of more
// names included, is refused.
func TestGroupSetCodec(t *testing.T) {
	big := make([]string, maxGroups+1)
	for i := range big {
		big[i] = fmt.Sprintf("%06d", i)
	}
	for _, set := range [][]string{{""}, {"g"}, {"", "a", "b"}, {"net", "urn:jxta:uuid-1"}, big[:maxGroups]} {
		if got, ok := parseSet(string(appendSet(nil, set))); !ok || !slices.Equal(got, set) {
			t.Errorf("%q came back as %q, %v", set, got, ok)
		}
	}
	for name, wire := range map[string][]byte{
		"empty":                 nil,
		"a name not ended":      []byte("abc"),
		"the last name cut":     appendSet(nil, []string{"a", "bc"})[:4],
		"out of order":          appendSet(nil, []string{"b", "a"}),
		"a name twice":          appendSet(nil, []string{"a", "a"}),
		`"" twice`:              {0, 0},
		`"" after another name`: append(appendSet(nil, []string{"a"}), 0),
		"too many names":        appendSet(nil, big),
	} {
		if got, ok := parseSet(string(wire)); ok {
			t.Errorf("%s: read as %d names", name, len(got))
		}
	}
}

// largeSets are two disjoint sets of n group names of the form a TPS
// type's group has, and a rendezvous core with 100 clients in a group of
// each and one client that holds the first.
func largeSets(n int) (c *core, client input, sets [2][]string) {
	cfg := Config{Role: RoleRendezvous}
	cfg.normalise()
	c = newCore(&cfg, 1)
	for i := range sets {
		for g := range n {
			sets[i] = append(sets[i], jid.Named(jid.KindGroup, fmt.Sprint("ps:type-", i, "-", g)).String())
		}
		slices.Sort(sets[i])
	}
	now := time.Unix(1_000_000, 0)
	for p := range 100 {
		c.step(now, input{kind: inConnect, from: endpoint.Address(fmt.Sprint("c", p)), src: jid.FromSeed(jid.KindPeer, uint64(p+1)),
			groups: []string{sets[p%2][p%n]}, seed: 1}, nil)
	}
	client = input{kind: inConnect, from: "big", src: jid.FromSeed(jid.KindPeer, 1000), groups: sets[0], seed: 1}
	c.step(now, client, nil)
	return c, client, sets
}

// TestLargeSetChangeIsBounded: a connect that swaps a client's set for a
// disjoint one looks each name up, it does not scan a set for it, so
// what it costs the rendezvous under s.mu grows with the sets' length:
// a swap of maxGroups names costs about 16 times one of maxGroups/16
// (it would cost some 256 times if it scanned), and twenty of them take
// milliseconds.
func TestLargeSetChangeIsBounded(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	swap := func(n int) (fastest, total time.Duration) {
		c, client, sets := largeSets(n)
		fastest = time.Hour
		for i := range 20 {
			client.groups = sets[(i+1)%2]
			start := time.Now()
			c.step(now, client, nil)
			took := time.Since(start)
			fastest, total = min(fastest, took), total+took
		}
		return fastest, total
	}
	small, _ := swap(maxGroups / 16)
	large, total := swap(maxGroups)
	if large > 64*small || total > 2*time.Second {
		t.Fatalf("a swap of %d groups takes %v, of %d groups %v; 20 of the larger took %v", maxGroups/16, small, maxGroups, large, total)
	}
	t.Logf("a swap of %d groups takes %v, of %d groups %v", maxGroups/16, small, maxGroups, large)
}

// BenchmarkLargeSetChange is what a connect that swaps a client's set of
// maxGroups names for a disjoint one costs the rendezvous.
func BenchmarkLargeSetChange(b *testing.B) {
	c, client, sets := largeSets(maxGroups)
	now := time.Unix(1_000_000, 0)
	for i := range b.N {
		client.groups = sets[(i+1)%2]
		c.step(now, client, nil)
	}
}

// BenchmarkRenewal is what a renewal costs a rendezvous that 1000
// clients lease 10 groups each with: a client's connect, which carries
// its 10 groups, and a neighbour rendezvous' connect for "", which
// carries every group.
func BenchmarkRenewal(b *testing.B) {
	now := time.Unix(1_000_000, 0)
	cfg := Config{Role: RoleRendezvous}
	cfg.normalise()
	c := newCore(&cfg, 1)
	connect := func(peer int, groups ...string) input {
		id := jid.FromSeed(jid.KindPeer, uint64(peer))
		return input{kind: inConnect, from: endpoint.Address(fmt.Sprint("tcp://10.0.0.1:", peer)), src: id, groups: groups, seed: 1}
	}
	var groups []string
	for g := range 10 {
		groups = append(groups, fmt.Sprint("g", g))
	}
	var clients []input
	for p := range 1000 {
		clients = append(clients, connect(p+1, groups...))
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
