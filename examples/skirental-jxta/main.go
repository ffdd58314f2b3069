// Command skirental-jxta is the very same ski-rental application as
// examples/skirental — but written directly against the JXTA layer
// (package srjxta), the way the paper's §4.4 does it, to make the
// programming-experience comparison concrete: the application owns its
// own AdvertisementsCreator, AdvertisementsFinder and WireServiceFinder
// plus the duplicate-suppression and multi-advertisement plumbing that
// TPS otherwise hides.
//
//	go run ./examples/skirental-jxta            # one-process demo
//
// Distributed mode mirrors examples/skirental:
//
//	go run ./examples/skirental-jxta -mode rdv -listen 127.0.0.1:9701
//	go run ./examples/skirental-jxta -mode sub -listen 127.0.0.1:9702 -seed tcp://127.0.0.1:9701
//	go run ./examples/skirental-jxta -mode pub -listen 127.0.0.1:9703 -seed tcp://127.0.0.1:9701
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/transport/memnet"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
	"github.com/tps-p2p/tps/internal/netsim"
	"github.com/tps-p2p/tps/internal/srapp"
	"github.com/tps-p2p/tps/internal/srapp/srjxta"
)

func main() {
	var (
		mode   = flag.String("mode", "demo", "demo | rdv | pub | sub")
		listen = flag.String("listen", "", "TCP listen address (distributed modes)")
		seeds  = flag.String("seed", "", "comma-separated rendezvous addresses")
		count  = flag.Int("count", 3, "offers to publish (pub mode)")
	)
	flag.Parse()
	if err := run(*mode, *listen, *seeds, *count); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run(mode, listen, seeds string, count int) error {
	if mode == "demo" {
		return demo(count)
	}
	if listen == "" {
		return fmt.Errorf("-listen is required in %s mode", mode)
	}
	tr, err := tcpnet.Listen(listen)
	if err != nil {
		return err
	}
	role := rendezvous.RoleEdge
	if mode == "rdv" {
		role = rendezvous.RoleRendezvous
	}
	var seedAddrs []endpoint.Address
	if seeds != "" {
		for _, s := range strings.Split(seeds, ",") {
			seedAddrs = append(seedAddrs, endpoint.Address(s))
		}
	}
	p, err := peer.New(peer.Config{Name: mode, Rendezvous: rendezvous.Config{Role: role, Seeds: seedAddrs}}, tr)
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Printf("%s peer %s listening on %v\n", mode, p.ID().Short(), p.Addresses())

	switch mode {
	case "rdv":
		fmt.Println("rendezvous running; ctrl-C to stop")
		waitInterrupt()
		return nil
	case "sub":
		app, err := srjxta.New(p, 5*time.Second)
		if err != nil {
			return err
		}
		defer app.Close()
		if err := app.Subscribe(func(r srapp.SkiRental) {
			fmt.Println("Skis that could be rented:", r)
		}); err != nil {
			return err
		}
		fmt.Println("subscribed; ctrl-C to stop")
		waitInterrupt()
		fmt.Printf("received %d offers in total\n", len(app.Received()))
		return nil
	case "pub":
		app, err := srjxta.New(p, 5*time.Second)
		if err != nil {
			return err
		}
		defer app.Close()
		if !app.AwaitReady(1, 15*time.Second) {
			return fmt.Errorf("no wire connection (is the rendezvous up?)")
		}
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < count; i++ {
			offer := srapp.RandomOffer(rng)
			fmt.Println("publishing:", offer)
			if err := app.Publish(offer); err != nil {
				return err
			}
			time.Sleep(time.Second)
		}
		return nil
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// demo runs shop, customer and rendezvous in one process over the
// simulated WAN.
func demo(count int) error {
	wan := netsim.New(netsim.Config{DefaultLink: netsim.Link{Latency: 2 * time.Millisecond}})
	defer wan.Close()
	mk := func(name string, role rendezvous.Role, seeds ...endpoint.Address) (*peer.Peer, error) {
		node, err := wan.AddNode(name)
		if err != nil {
			return nil, err
		}
		return peer.New(peer.Config{Name: name, Rendezvous: rendezvous.Config{Role: role, Seeds: seeds}}, memnet.New(node))
	}
	rdv, err := mk("rdv", rendezvous.RoleRendezvous)
	if err != nil {
		return err
	}
	defer rdv.Close()
	shopPeer, err := mk("shop", rendezvous.RoleEdge, "mem://rdv")
	if err != nil {
		return err
	}
	defer shopPeer.Close()
	customerPeer, err := mk("customer", rendezvous.RoleEdge, "mem://rdv")
	if err != nil {
		return err
	}
	defer customerPeer.Close()

	shop, err := srjxta.New(shopPeer, 500*time.Millisecond)
	if err != nil {
		return err
	}
	defer shop.Close()
	customer, err := srjxta.New(customerPeer, 5*time.Second)
	if err != nil {
		return err
	}
	defer customer.Close()
	if err := customer.Subscribe(func(r srapp.SkiRental) {
		fmt.Println("Skis that could be rented:", r)
	}); err != nil {
		return err
	}
	if !shop.AwaitReady(1, 10*time.Second) {
		return fmt.Errorf("shop never connected")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < count; i++ {
		offer := srapp.RandomOffer(rng)
		fmt.Println("shop publishes:", offer)
		if err := shop.Publish(offer); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(customer.Received()) < count && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("customer received %d of %d offers\n", len(customer.Received()), count)
	return nil
}

func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
