// Command chat is a serverless instant-messaging application — the
// P2P application class the paper's introduction opens with (ICQ, AIM) —
// built on TPS: a room is simply an event type, and every participant
// both publishes and subscribes.
//
// It also demonstrates the paper's SubscribeMany variant (method (3) of
// the TPSInterface): one callback renders messages to the console while
// a second one maintains the activity counter, each with its own
// exception handler.
//
// Demo mode runs a three-user conversation in one process, over
// loopback TCP:
//
//	go run ./examples/chat
//
// Interactive mode joins a real room over TCP (type lines, ctrl-D to
// leave):
//
//	go run ./examples/chat -mode rdv  -listen 127.0.0.1:9701
//	go run ./examples/chat -name ann  -listen 127.0.0.1:9702 -seed tcp://127.0.0.1:9701
//	go run ./examples/chat -name bob  -listen 127.0.0.1:9703 -seed tcp://127.0.0.1:9701
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	tps "github.com/tps-p2p/tps"
)

// ChatMessage is the room's event type.
type ChatMessage struct {
	From string
	Text string
	At   time.Time
}

func main() {
	var (
		mode   = flag.String("mode", "demo", "demo | rdv | chat")
		name   = flag.String("name", "anon", "display name (chat mode)")
		listen = flag.String("listen", "", "TCP listen address")
		seeds  = flag.String("seed", "", "comma-separated rendezvous addresses")
	)
	flag.Parse()
	var err error
	switch *mode {
	case "demo":
		err = demo()
	case "rdv":
		err = runRendezvous(*listen)
	default:
		err = chat(*name, *listen, *seeds)
	}
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}

// client bundles one participant's TPS stack.
type client struct {
	platform *tps.Platform
	engine   *tps.Engine[ChatMessage]
	intf     *tps.Interface[ChatMessage]
	activity atomic.Int64
}

// join subscribes with two callbacks (console + activity counter), the
// paper's multi-callback subscription.
func (c *client) join(render func(ChatMessage)) error {
	console := tps.CallBackFunc[ChatMessage](func(m ChatMessage) error {
		render(m)
		return nil
	})
	counter := tps.CallBackFunc[ChatMessage](func(ChatMessage) error {
		c.activity.Add(1)
		return nil
	})
	logErr := tps.ExceptionHandlerFunc(func(err error) { log.Println("chat:", err) })
	return c.intf.SubscribeMany(
		[]tps.CallBack[ChatMessage]{console, counter},
		[]tps.ExceptionHandler{logErr, logErr},
	)
}

func newClient(p *tps.Platform) (*client, error) {
	if err := tps.Register[ChatMessage](p); err != nil {
		return nil, err
	}
	eng, err := tps.NewEngine[ChatMessage](p)
	if err != nil {
		return nil, err
	}
	intf, err := eng.NewInterface(nil)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &client{platform: p, engine: eng, intf: intf}, nil
}

func (c *client) close() { c.engine.Close() }

// demo has ann, bob and zoe chat through a rendezvous, each on a
// loopback port the kernel picks.
func demo() error {
	mk := func(name string, rendezvous bool, seeds ...string) (*tps.Platform, error) {
		return tps.NewPlatform(tps.Config{
			Name: name, ListenTCP: "127.0.0.1:0", Rendezvous: rendezvous, Seeds: seeds,
			FindTimeout: 500 * time.Millisecond, FindInterval: 100 * time.Millisecond,
		})
	}
	rdv, err := mk("rdv", true)
	if err != nil {
		return err
	}
	defer rdv.Close()

	users := []string{"ann", "bob", "zoe"}
	clients := make([]*client, 0, len(users))
	for _, u := range users {
		p, err := mk(u, false, rdv.Addresses()...)
		if err != nil {
			return err
		}
		defer p.Close()
		c, err := newClient(p)
		if err != nil {
			return err
		}
		defer c.close()
		user := u
		if err := c.join(func(m ChatMessage) {
			if m.From != user { // don't echo own messages to own console
				fmt.Printf("  [%s's screen] %s: %s\n", user, m.From, m.Text)
			}
		}); err != nil {
			return err
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if !c.engine.AwaitReady(1, 10*time.Second) {
			return fmt.Errorf("a participant never joined the room")
		}
	}

	script := []struct{ who, text string }{
		{"ann", "anyone up for skiing this weekend?"},
		{"bob", "only if we rent — my skis are toast"},
		{"zoe", "there's a TPS app for that now"},
		{"ann", "publish once, every shop hears you. deal."},
	}
	for _, line := range script {
		for i, u := range users {
			if u == line.who {
				msg := ChatMessage{From: line.who, Text: line.text, At: time.Now()}
				if err := clients[i].intf.Publish(msg); err != nil {
					return err
				}
			}
		}
		time.Sleep(150 * time.Millisecond)
	}
	// Everyone should have seen all four messages (including their own:
	// pub/sub loops back).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, c := range clients {
			if c.activity.Load() < int64(len(script)) {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, u := range users {
		fmt.Printf("%s saw %d messages\n", u, clients[i].activity.Load())
	}
	return nil
}

func runRendezvous(listen string) error {
	if listen == "" {
		return fmt.Errorf("-listen is required in rdv mode")
	}
	p, err := tps.NewPlatform(tps.Config{Name: "rdv", ListenTCP: listen, Rendezvous: true})
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Printf("chat rendezvous on %v; ctrl-C to stop\n", p.Addresses())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	return nil
}

func chat(name, listen, seeds string) error {
	if listen == "" {
		return fmt.Errorf("-listen is required in chat mode")
	}
	var seedList []string
	if seeds != "" {
		seedList = strings.Split(seeds, ",")
	}
	p, err := tps.NewPlatform(tps.Config{Name: name, ListenTCP: listen, Seeds: seedList})
	if err != nil {
		return err
	}
	defer p.Close()
	c, err := newClient(p)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.join(func(m ChatMessage) {
		if m.From != name {
			fmt.Printf("%s: %s\n", m.From, m.Text)
		}
	}); err != nil {
		return err
	}
	if !c.engine.AwaitReady(1, 15*time.Second) {
		return fmt.Errorf("could not join the room (is the rendezvous up?)")
	}
	fmt.Printf("joined as %s — type messages, ctrl-D to leave\n", name)
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		if err := c.intf.Publish(ChatMessage{From: name, Text: text, At: time.Now()}); err != nil {
			log.Println("publish:", err)
		}
	}
	fmt.Printf("left the room after %d messages\n", c.activity.Load())
	return scanner.Err()
}
