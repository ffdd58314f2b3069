package main

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"time"

	tps "github.com/tps-p2p/tps"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/transport/tcpnet"
)

// Fixed for every peer of every workload. The engine's replay loop ticks
// at FindInterval, so catchup_p50_ms depends on it.
const (
	findTimeout  = 300 * time.Millisecond
	findInterval = 100 * time.Millisecond
	syncInterval = 250 * time.Millisecond
	traceRate    = 0.05
	readyTimeout = 10 * time.Second
	loopback     = "127.0.0.1:0"
)

// eventNode registers Event with gob under the name the platform's type
// registry will use, so the bench can build and size events before any
// platform exists.
var eventNode = func() *typereg.Node {
	n, err := typereg.New().Register(reflect.TypeOf(Event{}), nil)
	if err != nil {
		panic(err)
	}
	return n
}()

// peer is one platform of the cluster and, on traced runs, the bench's
// own tap around its transport.
type peer struct {
	name string
	role string // "rendezvous", "publisher", "subscriber", "joiner"
	p    *tps.Platform
	tap  *tap // nil on untraced runs
	// Edge peers run one engine for Event.
	eng  *tps.Engine[Event]
	intf *tps.Interface[Event]
}

// close stops the engine before the platform: Platform.Close leaves the
// engine's finder and replay loops running.
func (pr *peer) close() {
	if pr.eng != nil {
		pr.eng.Close()
	}
	pr.p.Close()
}

// cluster is every peer of one workload run, all in this process on
// loopback TCP.
type cluster struct {
	wl     workload
	tracer *tracer // nil on untraced runs
	tmp    string  // parent of the rendezvous log dirs

	mu    sync.Mutex
	peers []*peer // every platform booted, in boot order

	rdvs  []*peer
	seeds []string
	pub   *peer
	subs  []*subscriber
}

// bootPeer starts one platform. Untraced peers take the shipped path
// (Config.ListenTCP); traced peers get a tcpnet the bench created and
// wrapped, passed through WithTransport.
func (c *cluster) bootPeer(role string, cfg tps.Config, listen string) (*peer, error) {
	cfg.FindTimeout = findTimeout
	cfg.FindInterval = findInterval
	cfg.Codec = "gob"
	pr := &peer{name: cfg.Name, role: role}
	var err error
	if c.tracer == nil {
		cfg.ListenTCP = listen
		pr.p, err = tps.NewPlatform(cfg)
	} else {
		cfg.TraceRate = traceRate
		cfg.AdminAddr = loopback
		var t *tcpnet.Transport
		if t, err = tcpnet.Listen(listen); err != nil {
			return nil, err
		}
		pr.tap = c.tracer.wrap(cfg.Name, role, t)
		if pr.p, err = tps.NewPlatform(cfg, tps.WithTransport(pr.tap)); err != nil {
			_ = t.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", cfg.Name, err)
	}
	c.mu.Lock()
	c.peers = append(c.peers, pr)
	c.mu.Unlock()
	return pr, nil
}

// freePorts reserves n loopback ports by listening on :0 and closing.
// Another process can take one before the rendezvous binds it, which is
// why bootRendezvous retries once.
func freePorts(n int) ([]string, error) {
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", loopback)
		if err != nil {
			return nil, err
		}
		out = append(out, ln.Addr().String())
		_ = ln.Close()
	}
	return out, nil
}

func (c *cluster) bootRendezvous() error {
	n := 1
	if c.wl.replicated {
		n = 2
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = loopback
		}
		if n > 1 {
			// Replicas name each other in their configuration, so their
			// ports must be known before either boots.
			var err error
			if addrs, err = freePorts(n); err != nil {
				return err
			}
		}
		lastErr = nil
		for i, addr := range addrs {
			cfg := tps.Config{Name: fmt.Sprintf("rdv%d", i), Rendezvous: true}
			if c.wl.durable {
				dir, err := os.MkdirTemp(c.tmp, cfg.Name+"-log-")
				if err != nil {
					return err
				}
				cfg.LogDir = dir
			}
			if n > 1 {
				cfg.ReplicaSyncInterval = syncInterval
				for j, other := range addrs {
					if j != i {
						cfg.ReplicaSeeds = append(cfg.ReplicaSeeds, "tcp://"+other)
					}
				}
			}
			pr, err := c.bootPeer("rendezvous", cfg, addr)
			if err != nil {
				lastErr = err
				break
			}
			c.rdvs = append(c.rdvs, pr)
			c.seeds = append(c.seeds, pr.p.Addresses()[0])
		}
		if lastErr == nil {
			return nil
		}
		c.closePeers()
		c.rdvs, c.seeds = nil, nil
	}
	return lastErr
}

// bootEdge starts an edge platform leased to the cluster's rendezvous
// and creates its engine and interface for Event.
func (c *cluster) bootEdge(role, name string, criteria tps.Criteria[Event]) (*peer, error) {
	pr, err := c.bootPeer(role, tps.Config{Name: name, Seeds: c.seeds, Failover: c.wl.replicated}, loopback)
	if err != nil {
		return nil, err
	}
	if err := tps.Register[Event](pr.p); err != nil {
		return nil, err
	}
	if pr.eng, err = tps.NewEngine[Event](pr.p); err != nil {
		return nil, err
	}
	if pr.intf, err = pr.eng.NewInterface(criteria); err != nil {
		return nil, err
	}
	return pr, nil
}

// bootCluster brings up rendezvous, publisher and live subscribers and
// returns once every engine reports its group attached and leased. The
// subscribers boot concurrently, as independent peers would.
func bootCluster(wl workload, pl *payloads, tr *tracer, tmpParent string) (*cluster, error) {
	c := &cluster{wl: wl, tracer: tr}
	var err error
	if c.tmp, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	if err := c.bootRendezvous(); err != nil {
		return fail(err)
	}
	if c.pub, err = c.bootEdge("publisher", "pub", nil); err != nil {
		return fail(err)
	}
	if !c.pub.p.AwaitRendezvous(readyTimeout) {
		return fail(fmt.Errorf("publisher holds no rendezvous lease after %v", readyTimeout))
	}
	// The publisher's Announce creates the type advertisement (after
	// FindTimeout finds none); the subscribers then find it.
	if err := c.pub.eng.Announce(); err != nil {
		return fail(err)
	}
	if !c.pub.eng.AwaitReady(1, readyTimeout) {
		return fail(fmt.Errorf("publisher group not ready after %v", readyTimeout))
	}
	c.subs = make([]*subscriber, wl.subs)
	errs := make([]error, wl.subs)
	var wg sync.WaitGroup
	for i := range c.subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.subs[i], errs[i] = c.bootSubscriber(fmt.Sprintf("sub%d", i), pl)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// bootSubscriber starts a live subscriber and waits until its group is
// attached and leased. Its callback records deliveries but acks nothing
// until a loop is stored in it.
func (c *cluster) bootSubscriber(name string, pl *payloads) (*subscriber, error) {
	s := &subscriber{pl: pl}
	var err error
	if s.peer, err = c.bootEdge("subscriber", name, s.observe); err != nil {
		return nil, err
	}
	if err := s.subscribe(); err != nil {
		return nil, err
	}
	if !s.eng.AwaitReady(1, readyTimeout) {
		return nil, fmt.Errorf("%s group not ready after %v", name, readyTimeout)
	}
	return s, nil
}

// closePeer shuts one platform down and forgets it.
func (c *cluster) closePeer(pr *peer) {
	pr.close()
	c.mu.Lock()
	for i, cur := range c.peers {
		if cur == pr {
			c.peers = append(c.peers[:i], c.peers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

func (c *cluster) closePeers() {
	c.mu.Lock()
	peers := c.peers
	c.peers = nil
	c.mu.Unlock()
	// Edges first, so their disconnects reach a live rendezvous.
	for i := len(peers) - 1; i >= 0; i-- {
		peers[i].close()
	}
}

// close shuts every platform down and removes the log directories; it
// runs on failure paths too.
func (c *cluster) close() {
	c.closePeers()
	if c.tmp != "" {
		_ = os.RemoveAll(c.tmp)
	}
}

// livePeers lists the platforms still running, in boot order.
func (c *cluster) livePeers() []*peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*peer(nil), c.peers...)
}
