package rig_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/obs"
	"github.com/tps-p2p/tps/internal/rig"
)

// note is the event the self-tests publish.
type note struct{ Body string }

// leases counts the client leases rdv holds for n, over all groups.
func leases(rdv, n *rig.Node) (count int) {
	for _, pe := range rdv.Inspect().Peers {
		if pe.Kind == obs.PeerClient && pe.ID == n.PeerID() {
			count++
		}
	}
	return count
}

// pair starts a rendezvous and two edges, the second subscribed with the
// returned probe, and waits until an event gets through.
func pair(t *testing.T, c *rig.Cluster, rdvCfg tps.Config) (rdv, pub, sub *rig.Node, intf *tps.Interface[note], probe *rig.Probe[note]) {
	t.Helper()
	rdvCfg.Name, rdvCfg.Rendezvous = "rdv", true
	rdv = c.Start(rdvCfg)
	pub = c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}})
	sub = c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
	probe = &rig.Probe[note]{}
	_, subIntf := rig.Engine[note](t, sub)
	if err := subIntf.Subscribe(probe, probe); err != nil {
		t.Fatal(err)
	}
	pubEng, intf := rig.Engine[note](t, pub)
	if !pubEng.AwaitReady(1, 10*time.Second) {
		t.Fatal("publisher never ready")
	}
	if err := intf.Publish(note{"hello"}); err != nil {
		t.Fatal(err)
	}
	probe.Await(t, 1)
	return rdv, pub, sub, intf, probe
}

// TestKillIsACrashNotAClose is the mirror image of
// TestCloseTellsTheRendezvousOverTCP: a killed node's disconnect never
// leaves it, so the rendezvous holds its leases until the failure
// detector or the lease clock drops them — while a closed node's are
// gone at once.
func TestKillIsACrashNotAClose(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, pub, sub, _, _ := pair(t, c, tps.Config{})
		if leases(rdv, sub) == 0 || leases(rdv, pub) == 0 {
			t.Fatalf("edges hold no leases: %+v", rdv.Inspect().Peers)
		}
		c.Kill(sub)
		pub.Close()
		rig.Wait(t, "the closed node's leases to go", func() bool { return leases(rdv, pub) == 0 })
		if n := leases(rdv, sub); n == 0 {
			t.Fatal("the rendezvous dropped a killed node's leases as fast as a closed node's: Kill let the disconnect out")
		}
		// Nobody publishes, so nothing is sent to the corpse and the
		// detector has no evidence: the 2 s lease clock is what ends it.
		rig.Wait(t, "the killed node's leases to lapse", func() bool { return leases(rdv, sub) == 0 })
	})
}

// TestPartitionFailsSendsUntilHeal: a publisher cut off from its only
// rendezvous is told so, and the same call works again after Heal.
func TestPartitionFailsSendsUntilHeal(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		_, _, _, intf, probe := pair(t, c, tps.Config{})
		c.Partition([]string{"pub"}, []string{"rdv", "sub"})
		if err := intf.Publish(note{"cut off"}); !errors.Is(err, rendezvous.ErrAllSendsFailed) {
			t.Fatalf("publish into a partition: %v, want ErrAllSendsFailed", err)
		}
		c.Heal()
		rig.Wait(t, "publish to succeed after heal", func() bool { return intf.Publish(note{"back"}) == nil })
		probe.Await(t, 2)
		for _, ev := range probe.Events() {
			if ev.Body == "cut off" {
				t.Fatal("an event crossed the partition")
			}
		}
	})
}

// TestRestartKeepsNameAddressLogAndID restarts a durable rendezvous: the
// new platform answers on the old address under the old name and ID, and
// its log still holds what the old one appended.
func TestRestartKeepsNameAddressLogAndID(t *testing.T) {
	rig.Each(t, func(t *testing.T, c *rig.Cluster) {
		rdv, _, _, intf, probe := pair(t, c, tps.Config{LogDir: t.TempDir()})
		before := rdv.Inspect()
		rig.Wait(t, "the log to hold the event", func() bool { return len(rdv.Inspect().EventLog) == 1 })
		logged := rdv.Inspect().EventLog

		rdv2 := c.Restart(rdv)
		after := rdv2.Inspect()
		if after.Name != before.Name || after.PeerID != before.PeerID || fmt.Sprint(after.Addresses) != fmt.Sprint(before.Addresses) {
			t.Fatalf("restarted as %s %s %v, was %s %s %v", after.Name, after.PeerID, after.Addresses, before.Name, before.PeerID, before.Addresses)
		}
		if fmt.Sprint(after.EventLog) != fmt.Sprint(logged) {
			t.Fatalf("log after restart %+v, before %+v", after.EventLog, logged)
		}
		// The edges find it again on their own.
		rig.Wait(t, "delivery through the restarted rendezvous", func() bool {
			_ = intf.Publish(note{fmt.Sprint("again-", time.Now().UnixNano())})
			return probe.Count() >= 2
		})
	})
}

// TestProbeFlagsADuplicate: the probe's exactly-once check fails on a
// second delivery of one event and names it.
func TestProbeFlagsADuplicate(t *testing.T) {
	p := &rig.Probe[note]{}
	for _, body := range []string{"a", "b", "a"} {
		_ = p.Handle(note{body})
	}
	if ev, dup := p.Duplicate(); !dup || ev.Body != "a" {
		t.Fatalf("Duplicate() = %v, %v; want a, true", ev, dup)
	}
	q := &rig.Probe[note]{}
	_ = q.Handle(note{"a"})
	_ = q.Handle(note{"b"})
	if ev, dup := q.Duplicate(); dup {
		t.Fatalf("Duplicate() flagged %v among distinct events", ev)
	}
	q.ExactlyOnce(t, 2)
}
