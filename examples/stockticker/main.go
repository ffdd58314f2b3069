// Command stockticker demonstrates the type-hierarchy semantics of the
// paper's Figure 7: subscribing to a supertype delivers every published
// instance of its subtypes.
//
// The hierarchy:
//
//	Quote (interface)          — fA
//	├── StockQuote             — fB
//	└── FxQuote                — fC
//
// A subscriber to Quote receives stock AND currency quotes; a subscriber
// to StockQuote receives stock quotes only — the paper's
// fA(fA,fB,fC,fD) / fC(fC,fD) flows.
//
//	go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	tps "github.com/tps-p2p/tps"
)

// Quote is the hierarchy root: anything with a symbol and a value.
type Quote interface {
	Symbol() string
	Value() float64
}

// StockQuote is an equity quote.
type StockQuote struct {
	Ticker string
	Price  float64
}

// Symbol implements Quote.
func (q StockQuote) Symbol() string { return q.Ticker }

// Value implements Quote.
func (q StockQuote) Value() float64 { return q.Price }

// FxQuote is a currency-pair quote.
type FxQuote struct {
	Pair string
	Rate float64
}

// Symbol implements Quote.
func (q FxQuote) Symbol() string { return q.Pair }

// Value implements Quote.
func (q FxQuote) Value() float64 { return q.Rate }

func main() {
	if err := run(); err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

func run() error {
	// Four peers in one process, each on a loopback port the kernel picks.
	mk := func(name string, rendezvous bool, seeds ...string) (*tps.Platform, error) {
		p, err := tps.NewPlatform(tps.Config{
			Name: name, ListenTCP: "127.0.0.1:0", Rendezvous: rendezvous, Seeds: seeds,
			FindTimeout: 500 * time.Millisecond, FindInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		// Type definition phase: the common type model, including the
		// hierarchy, must be shared a priori (§3.2).
		if err := tps.Register[Quote](p); err != nil {
			return nil, err
		}
		if err := tps.RegisterSub[StockQuote, Quote](p); err != nil {
			return nil, err
		}
		if err := tps.RegisterSub[FxQuote, Quote](p); err != nil {
			return nil, err
		}
		return p, nil
	}

	rdv, err := mk("rdv", true)
	if err != nil {
		return err
	}
	defer rdv.Close()
	feed, err := mk("feed", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer feed.Close()
	traderP, err := mk("trader", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer traderP.Close()
	equityP, err := mk("equity-desk", false, rdv.Addresses()...)
	if err != nil {
		return err
	}
	defer equityP.Close()

	// The trader watches EVERYTHING: one subscription to the root type.
	allEng, err := tps.NewEngine[Quote](traderP)
	if err != nil {
		return err
	}
	defer allEng.Close()
	allIntf, err := allEng.NewInterface(nil)
	if err != nil {
		return err
	}
	allDone := make(chan struct{})
	var allCount int
	err = allIntf.Subscribe(tps.CallBackFunc[Quote](func(q Quote) error {
		allCount++
		fmt.Printf("[trader]      %-8s = %10.4f   (%T)\n", q.Symbol(), q.Value(), q)
		if allCount == 4 {
			close(allDone)
		}
		return nil
	}), nil)
	if err != nil {
		return err
	}

	// The equity desk watches stocks only: a subtype subscription with a
	// content filter on top (criteria use the type's own methods).
	eqEng, err := tps.NewEngine[StockQuote](equityP)
	if err != nil {
		return err
	}
	defer eqEng.Close()
	eqIntf, err := eqEng.NewInterface(func(q StockQuote) bool { return q.Price >= 100 })
	if err != nil {
		return err
	}
	err = eqIntf.Subscribe(tps.CallBackFunc[StockQuote](func(q StockQuote) error {
		fmt.Printf("[equity desk] %-8s = %10.4f   (big ticket only)\n", q.Ticker, q.Price)
		return nil
	}), nil)
	if err != nil {
		return err
	}

	// The feed publishes concrete quote types.
	stockEng, err := tps.NewEngine[StockQuote](feed)
	if err != nil {
		return err
	}
	defer stockEng.Close()
	stockIntf, err := stockEng.NewInterface(nil)
	if err != nil {
		return err
	}
	fxEng, err := tps.NewEngine[FxQuote](feed)
	if err != nil {
		return err
	}
	defer fxEng.Close()
	fxIntf, err := fxEng.NewInterface(nil)
	if err != nil {
		return err
	}
	if err := stockEng.Announce(); err != nil {
		return err
	}
	if err := fxEng.Announce(); err != nil {
		return err
	}
	if !stockEng.AwaitReady(1, 10*time.Second) || !fxEng.AwaitReady(1, 10*time.Second) {
		return fmt.Errorf("feed never attached to the quote groups")
	}
	if !allEng.AwaitReady(2, 10*time.Second) {
		return fmt.Errorf("trader did not attach to the subtype groups")
	}

	quotes := []Quote{
		StockQuote{Ticker: "ACME", Price: 142.50},
		FxQuote{Pair: "EURUSD", Rate: 1.0871},
		StockQuote{Ticker: "PENNY", Price: 0.42},
		FxQuote{Pair: "USDCHF", Rate: 0.9112},
	}
	for _, q := range quotes {
		switch v := q.(type) {
		case StockQuote:
			if err := stockIntf.Publish(v); err != nil {
				return err
			}
		case FxQuote:
			if err := fxIntf.Publish(v); err != nil {
				return err
			}
		}
	}
	select {
	case <-allDone:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("trader received %d of 4 quotes", allCount)
	}
	// Give the equity desk a moment to drain.
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("\ntrader saw %d quotes (all types); equity desk saw %d (filtered stocks)\n",
		len(allIntf.ObjectsReceived()), len(eqIntf.ObjectsReceived()))
	return nil
}
