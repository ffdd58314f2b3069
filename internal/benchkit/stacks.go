package benchkit

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/srapp"
	"github.com/tps-p2p/tps/internal/srapp/srjxta"
	"github.com/tps-p2p/tps/internal/srapp/srtps"
)

// --- JXTA-WIRE: the lower-bound reference stack ---
//
// No discovery, no advertisements, no duplicate handling, no typed
// events: peers join one pre-agreed group, open the pre-agreed wire
// pipe, and move gob-encoded bytes. This is what the paper compares
// against "even if JXTA-WIRE alone is not comparable ... since it does
// not insure the properties described in Section 4.4".

var (
	wireGroupID = jid.FromSeed(jid.KindGroup, 0xBE_EF)
	wirePipeID  = jid.FromSeed(jid.KindPipe, 0xF0_0D)
)

type wirePub struct {
	out  *wire.OutputPipe
	self jid.ID
	sent atomic.Int64
}

func (w *wirePub) Publish(offer srapp.SkiRental) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(offer); err != nil {
		return err
	}
	m := message.New(w.self)
	m.AddBytes("bench", "payload", buf.Bytes())
	if err := w.out.Send(m); err != nil {
		return err
	}
	w.sent.Add(1)
	return nil
}

func (w *wirePub) Sent() int { return int(w.sent.Load()) }

type wireSub struct {
	received atomic.Int64
}

func (w *wireSub) Received() int { return int(w.received.Load()) }

// joinWire builds the pre-agreed group's wire service on the peer and
// leases the group with the peer's seeds.
func (c *Cluster) joinWire(p *peer.Peer) (*wire.Service, error) {
	param := wireGroupID.String()
	w, err := wire.New(p.Rendezvous(), wire.Config{Group: param})
	if err != nil {
		return nil, err
	}
	c.closers = append(c.closers, w.Close)
	p.Rendezvous().Join(param)
	return w, nil
}

func (c *Cluster) buildWire(pubAddrs []endpoint.Address) error {
	for i := 0; i < c.cfg.Publishers; i++ {
		node, err := c.pubNode(i)
		if err != nil {
			return err
		}
		p, err := newPeer(node.Name(), node, rendezvous.RoleRendezvous, nil)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, p.Close)
		w, err := c.joinWire(p)
		if err != nil {
			return err
		}
		out, err := w.CreateOutputPipe(wirePipeID)
		if err != nil {
			return err
		}
		c.Pubs = append(c.Pubs, &wirePub{out: out, self: p.ID()})
	}
	for j := 0; j < c.cfg.Subscribers; j++ {
		node, err := c.subNode(j)
		if err != nil {
			return err
		}
		p, err := newPeer(node.Name(), node, rendezvous.RoleEdge, pubAddrs)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, p.Close)
		w, err := c.joinWire(p)
		if err != nil {
			return err
		}
		in, err := w.CreateInputPipe(wirePipeID)
		if err != nil {
			return err
		}
		sub := &wireSub{}
		in.SetListener(func(*message.Message) { sub.received.Add(1) })
		c.Subs = append(c.Subs, sub)
	}
	return nil
}

// --- SR-JXTA: the hand-written application ---

type srjxtaPub struct{ app *srjxta.App }

func (s *srjxtaPub) Publish(offer srapp.SkiRental) error { return s.app.Publish(offer) }
func (s *srjxtaPub) Sent() int                           { return len(s.app.Sent()) }

type srjxtaSub struct {
	received atomic.Int64
}

func (s *srjxtaSub) Received() int { return int(s.received.Load()) }

func (c *Cluster) buildSRJXTA(pubAddrs []endpoint.Address) error {
	for i := 0; i < c.cfg.Publishers; i++ {
		node, err := c.pubNode(i)
		if err != nil {
			return err
		}
		p, err := newPeer(node.Name(), node, rendezvous.RoleRendezvous, nil)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, p.Close)
		// The first publisher creates the type advertisement quickly;
		// later ones find it through the mesh.
		timeout := 300 * time.Millisecond
		if i > 0 {
			timeout = 3 * time.Second
		}
		app, err := srjxta.New(p, timeout)
		if err != nil {
			return fmt.Errorf("srjxta publisher %d: %w", i, err)
		}
		c.closers = append(c.closers, app.Close)
		c.Pubs = append(c.Pubs, &srjxtaPub{app: app})
	}
	for j := 0; j < c.cfg.Subscribers; j++ {
		node, err := c.subNode(j)
		if err != nil {
			return err
		}
		p, err := newPeer(node.Name(), node, rendezvous.RoleEdge, pubAddrs)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, p.Close)
		app, err := srjxta.New(p, 5*time.Second)
		if err != nil {
			return fmt.Errorf("srjxta subscriber %d: %w", j, err)
		}
		c.closers = append(c.closers, app.Close)
		sub := &srjxtaSub{}
		if err := app.Subscribe(func(srapp.SkiRental) { sub.received.Add(1) }); err != nil {
			return err
		}
		c.Subs = append(c.Subs, sub)
	}
	return nil
}

// --- SR-TPS: the application over the TPS layer ---

type srtpsPub struct{ app *srtps.App }

func (s *srtpsPub) Publish(offer srapp.SkiRental) error { return s.app.Publish(offer) }
func (s *srtpsPub) Sent() int                           { return len(s.app.Sent()) }

type srtpsSub struct {
	received atomic.Int64
}

func (s *srtpsSub) Received() int { return int(s.received.Load()) }

func (c *Cluster) buildSRTPS(pubAddrs []endpoint.Address) error {
	for i := 0; i < c.cfg.Publishers; i++ {
		node, err := c.pubNode(i)
		if err != nil {
			return err
		}
		platform, err := newPlatform(node.Name(), node, true, nil)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, platform.Close)
		app, err := srtps.New(platform)
		if err != nil {
			return fmt.Errorf("srtps publisher %d: %w", i, err)
		}
		c.closers = append(c.closers, app.Close)
		c.Pubs = append(c.Pubs, &srtpsPub{app: app})
	}
	for j := 0; j < c.cfg.Subscribers; j++ {
		node, err := c.subNode(j)
		if err != nil {
			return err
		}
		platform, err := newPlatform(node.Name(), node, false, pubAddrs)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, platform.Close)
		app, err := srtps.New(platform)
		if err != nil {
			return fmt.Errorf("srtps subscriber %d: %w", j, err)
		}
		c.closers = append(c.closers, app.Close)
		sub := &srtpsSub{}
		if err := app.SubscribeFunc(func(srapp.SkiRental) { sub.received.Add(1) }); err != nil {
			return err
		}
		c.Subs = append(c.Subs, sub)
	}
	return nil
}
