// Command quickstart is the smallest complete TPS program: a publisher
// and a subscriber exchanging typed events through a rendezvous, all in
// one process over loopback TCP (so it runs anywhere, offline).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	tps "github.com/tps-p2p/tps"
)

// Greeting is the application-defined event type: TPS's "subject" is
// the type itself.
type Greeting struct {
	From string
	Text string
}

func main() {
	if err := run(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	// Three peers on loopback ports the kernel picks: one rendezvous
	// bridging two edges (in a real deployment these are three machines,
	// each with its own ListenTCP address, and Seeds names the
	// rendezvous' "tcp://host:port").
	platform := func(name string, rendezvous bool, seeds ...string) (*tps.Platform, error) {
		return tps.NewPlatform(tps.Config{
			Name:         name,
			ListenTCP:    "127.0.0.1:0",
			Rendezvous:   rendezvous,
			Seeds:        seeds,
			FindInterval: 100 * time.Millisecond,
			// AdminAddr: "127.0.0.1:7700", // uncomment, then: curl -s http://127.0.0.1:7700/stats
		})
	}

	rdv, err := platform("rdv", true)
	if err != nil {
		return err
	}
	defer rdv.Close()
	alice, err := platform("alice", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := platform("bob", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer bob.Close()

	// Type definition phase: both peers agree on the event type.
	if err := tps.Register[Greeting](alice); err != nil {
		return err
	}
	if err := tps.Register[Greeting](bob); err != nil {
		return err
	}

	// Bob subscribes: initialization + subscription phases.
	bobEngine, err := tps.NewEngine[Greeting](bob)
	if err != nil {
		return err
	}
	defer bobEngine.Close()
	bobIntf, err := bobEngine.NewInterface(nil)
	if err != nil {
		return err
	}
	got := make(chan Greeting, 1)
	err = bobIntf.Subscribe(tps.CallBackFunc[Greeting](func(g Greeting) error {
		got <- g
		return nil
	}), nil)
	if err != nil {
		return err
	}

	// Alice publishes: initialization + publication phases.
	aliceEngine, err := tps.NewEngine[Greeting](alice)
	if err != nil {
		return err
	}
	defer aliceEngine.Close()
	aliceIntf, err := aliceEngine.NewInterface(nil)
	if err != nil {
		return err
	}
	if !aliceEngine.AwaitReady(1, 10*time.Second) {
		return fmt.Errorf("alice never attached to the Greeting event group")
	}
	if err := aliceIntf.Publish(Greeting{From: "alice", Text: "hello, P2P world"}); err != nil {
		return err
	}

	select {
	case g := <-got:
		fmt.Printf("bob received: %q from %s\n", g.Text, g.From)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("timed out waiting for the greeting")
	}
	fmt.Printf("alice sent %d event(s); bob received %d event(s)\n",
		len(aliceIntf.ObjectsSent()), len(bobIntf.ObjectsReceived()))
	return nil
}
