// Command skirental is the paper's testbed application (§4) over the
// TPS API: shops publish ski-rental offers, customers subscribe and
// compare them — the CLI equivalent of the paper's Figures 12 and 13.
//
// Demo mode (default) runs a rendezvous, a shop and a customer in one
// process over loopback TCP:
//
//	go run ./examples/skirental
//
// Distributed mode runs one role per process over TCP:
//
//	go run ./examples/skirental -mode rdv  -listen 127.0.0.1:9701
//	go run ./examples/skirental -mode sub  -listen 127.0.0.1:9702 -seed tcp://127.0.0.1:9701
//	go run ./examples/skirental -mode pub  -listen 127.0.0.1:9703 -seed tcp://127.0.0.1:9701 -count 5
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

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/srapp"
	"github.com/tps-p2p/tps/internal/srapp/srtps"
)

func main() {
	var (
		mode   = flag.String("mode", "demo", "demo | rdv | pub | sub")
		listen = flag.String("listen", "", "TCP listen address (distributed modes)")
		seeds  = flag.String("seed", "", "comma-separated rendezvous addresses")
		count  = flag.Int("count", 3, "offers to publish (pub mode)")
		pause  = flag.Duration("pause", time.Second, "pause between offers (pub mode)")
	)
	flag.Parse()
	if err := run(*mode, *listen, *seeds, *count, *pause); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run(mode, listen, seeds string, count int, pause time.Duration) error {
	switch mode {
	case "demo":
		return demo(count)
	case "rdv", "pub", "sub":
		return distributed(mode, listen, seeds, count, pause)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// demo runs all three roles in one process, each on a loopback port the
// kernel picks.
func demo(count int) error {
	mk := func(name string, rendezvous bool, seeds ...string) (*tps.Platform, error) {
		return tps.NewPlatform(tps.Config{
			Name: name, ListenTCP: "127.0.0.1:0", Rendezvous: rendezvous, Seeds: seeds,
			FindInterval: 100 * time.Millisecond,
		})
	}
	rdv, err := mk("rdv", true)
	if err != nil {
		return err
	}
	defer rdv.Close()
	shopP, err := mk("shop", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer shopP.Close()
	customerP, err := mk("customer", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer customerP.Close()

	customer, err := srtps.New(customerP)
	if err != nil {
		return err
	}
	defer customer.Close()
	if err := customer.SubscribeConsole(os.Stdout); err != nil {
		return err
	}

	shop, err := srtps.New(shopP)
	if err != nil {
		return err
	}
	defer shop.Close()
	if !shop.AwaitReady(1, 10*time.Second) {
		return fmt.Errorf("shop never attached to the SkiRental event group")
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

// distributed runs one role over TCP.
func distributed(mode, listen, seeds string, count int, pause time.Duration) error {
	if listen == "" {
		return fmt.Errorf("-listen is required in %s mode", mode)
	}
	var seedList []string
	if seeds != "" {
		seedList = strings.Split(seeds, ",")
	}
	platform, err := tps.NewPlatform(tps.Config{
		Name:       mode,
		ListenTCP:  listen,
		Seeds:      seedList,
		Rendezvous: mode == "rdv",
	})
	if err != nil {
		return err
	}
	defer platform.Close()
	fmt.Printf("%s peer %s listening on %v\n", mode, platform.PeerID(), platform.Addresses())

	switch mode {
	case "rdv":
		fmt.Println("rendezvous running; ctrl-C to stop")
		waitInterrupt()
		return nil
	case "sub":
		app, err := srtps.New(platform)
		if err != nil {
			return err
		}
		defer app.Close()
		if err := app.SubscribeConsole(os.Stdout); err != nil {
			return err
		}
		fmt.Println("subscribed to SkiRental offers; ctrl-C to stop")
		waitInterrupt()
		fmt.Printf("received %d offers in total\n", len(app.Received()))
		return nil
	default: // pub
		app, err := srtps.New(platform)
		if err != nil {
			return err
		}
		defer app.Close()
		if !app.AwaitReady(1, 15*time.Second) {
			return fmt.Errorf("no connection to the SkiRental event group (is the rendezvous up?)")
		}
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < count; i++ {
			offer := srapp.RandomOffer(rng)
			fmt.Println("publishing:", offer)
			if err := app.Publish(offer); err != nil {
				return err
			}
			time.Sleep(pause)
		}
		return nil
	}
}

func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
