package rig

import (
	"errors"
	"fmt"
	"testing"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/netsim"
)

// knock is the event the firewall scenario publishes.
type knock struct{ Body string }

// TestFirewalledEdgesPublishAndReceive: a publisher and a subscriber
// that both refuse unsolicited inbound traffic exchange events through
// their rendezvous, which reaches each over the flow the edge's own
// lease request opened — nothing relays for them. The firewall is on:
// the rendezvous cannot reach a firewalled node that never sent to it,
// and the two edges cannot reach each other.
func TestFirewalledEdgesPublishAndReceive(t *testing.T) {
	t.Run(string(Netsim), func(t *testing.T) {
		c := New(t, Netsim)
		c.Firewall("pub", "sub", "mute")
		c.Start(tps.Config{Name: "rdv", Rendezvous: true})
		pub := c.Start(tps.Config{Name: "pub", Seeds: []string{"rdv"}})
		sub := c.Start(tps.Config{Name: "sub", Seeds: []string{"rdv"}})
		probe := &Probe[knock]{}
		subEng, subIntf := Engine[knock](t, sub)
		if err := subIntf.Subscribe(probe, probe); err != nil {
			t.Fatal(err)
		}
		pubEng, intf := Engine[knock](t, pub)
		if !pubEng.AwaitReady(1, 10*time.Second) || !subEng.AwaitReady(1, 10*time.Second) {
			t.Fatal("publisher or subscriber never ready")
		}
		const n = 20
		for i := range n {
			if err := intf.Publish(knock{fmt.Sprint("event-", i)}); err != nil {
				t.Fatal(err)
			}
		}
		probe.Await(t, n)
		c.Settle()
		probe.ExactlyOnce(t, n)

		for _, hop := range [][2]string{{"rdv", "mute"}, {"pub", "sub"}, {"sub", "pub"}} {
			err := c.link(hop[0]).Send(c.link(hop[1]).LocalAddress(), []byte("unsolicited"))
			if !errors.Is(err, netsim.ErrFirewalled) {
				t.Fatalf("unsolicited send %s -> %s: %v, want ErrFirewalled", hop[0], hop[1], err)
			}
		}
	})
}
