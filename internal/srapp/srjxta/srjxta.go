// Package srjxta is the ski-rental application written directly against
// the JXTA layer — the paper's §4.4 exhibit (SR-JXTA).
//
// It provides the very same functionality as the TPS version (package
// srtps): (1) minimisation of the number of advertisements for the same
// type, (2) management of multiple advertisements at the same time and
// (3) handling of duplicate messages — but every piece is written by
// hand against discovery, peer groups and wire pipes, in the style of
// the paper's AdvertisementsCreator (Figure 15), AdvertisementsFinder
// (Figure 16) and WireServiceFinder (Figure 17). The contrast in sheer
// code volume with srtps is the point.
package srjxta

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/seen"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/srapp"
)

// PSPrefix is the prefix the paper's applications give advertisement
// names. It does not make SR-JXTA and TPS interoperate: this application
// finds its groups by advertisement, while TPS computes a type's group
// from its name and advertises nothing.
const PSPrefix = "PS."

// TypeName is the name of the one type this hand-written application
// supports. (TPS generalises this for free; here it is hard-coded, which
// is exactly the flexibility the abstraction buys.)
const TypeName = "SkiRental"

// ErrClosed is returned after Close.
var ErrClosed = errors.New("srjxta: closed")

// message elements
const (
	elemNS    = "skirental"
	elemEvent = "Event"
	elemID    = "EventID"
)

// App is one peer's hand-written ski-rental application.
type App struct {
	peer *peer.Peer
	disc *discovery.Service // the net group's, which the app starts and closes

	creator *AdvertisementsCreator
	finder  *AdvertisementsFinder

	mu        sync.Mutex
	conns     map[jid.ID]*wireConnection // group ID -> live connection
	listeners []func(srapp.SkiRental)
	received  []srapp.SkiRental
	sent      []srapp.SkiRental
	dupes     *seen.Cache
	closed    bool
}

// wireConnection is one joined event group with its pipes (the paper's
// MyInputPipe/MyOutputPipe pair).
type wireConnection struct {
	groupID jid.ID
	in      *wire.InputPipe
	out     *wire.OutputPipe
}

// New builds the application on a running peer: it starts discovery in
// the net group and the advertisement finder, searches for an existing
// SkiRental advertisement, and creates its own if none shows up within
// findTimeout.
func New(p *peer.Peer, findTimeout time.Duration) (*App, error) {
	disc, err := discovery.New(p.Endpoint(), p.Rendezvous(), jid.NetGroup.String())
	if err != nil {
		return nil, fmt.Errorf("srjxta: start discovery: %w", err)
	}
	a := &App{
		peer:  p,
		disc:  disc,
		conns: make(map[jid.ID]*wireConnection),
		dupes: seen.New(),
	}
	a.creator = NewAdvertisementsCreator(p, disc)
	a.finder = NewAdvertisementsFinder(disc, PSPrefix+TypeName)
	a.finder.AddListener(a.handleNewAdvertisement)
	a.finder.Start()

	// Initialization: look for an existing advertisement for the type...
	if !a.awaitConnection(findTimeout) {
		// ...and create our own when none is found in time, but keep the
		// finder running to reach the maximum number of interested
		// subscribers later.
		groupAdv, err := a.creator.CreatePeerGroupAdvertisement(TypeName)
		if err != nil {
			a.Close()
			return nil, err
		}
		if err := a.creator.PublishAdvertisement(groupAdv); err != nil {
			a.Close()
			return nil, err
		}
		a.handleNewAdvertisement(groupAdv)
	}
	return a, nil
}

// awaitConnection waits until at least one wire connection exists.
func (a *App) awaitConnection(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		a.mu.Lock()
		n := len(a.conns)
		a.mu.Unlock()
		if n > 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// handleNewAdvertisement reacts to every advertisement the finder
// dispatches: join its group, look up the wire service, open the pipes —
// the WireServiceFinder flow.
func (a *App) handleNewAdvertisement(pg *adv.PeerGroupAdv) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	if _, dup := a.conns[pg.GroupID]; dup {
		a.mu.Unlock()
		return // multiple-advertisement management: already connected
	}
	a.mu.Unlock()

	wsf := NewWireServiceFinder(a.peer, pg)
	if err := wsf.LookupWireService(); err != nil {
		return
	}
	in, err := wsf.CreateInputPipe()
	if err != nil {
		return
	}
	out, err := wsf.CreateOutputPipe()
	if err != nil {
		in.Close()
		return
	}
	conn := &wireConnection{groupID: pg.GroupID, in: in, out: out}
	in.SetListener(func(m *message.Message) { a.handleMessage(m) })

	a.mu.Lock()
	if a.closed || a.conns[pg.GroupID] != nil {
		a.mu.Unlock()
		in.Close()
		return
	}
	a.conns[pg.GroupID] = conn
	a.mu.Unlock()
}

// handleMessage decodes one wire message, suppresses duplicates (the
// same event arrives once per connected group) and dispatches to the
// subscribers.
func (a *App) handleMessage(m *message.Message) {
	idRaw := m.Text(elemNS, elemID)
	eventID, err := jid.Parse(idRaw)
	if err != nil {
		return
	}
	if !a.dupes.Observe(eventID) {
		return // duplicate handling, by hand
	}
	data := m.Bytes(elemNS, elemEvent)
	var offer srapp.SkiRental
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&offer); err != nil {
		return
	}
	a.mu.Lock()
	a.received = append(a.received, offer)
	listeners := make([]func(srapp.SkiRental), len(a.listeners))
	copy(listeners, a.listeners)
	a.mu.Unlock()
	for _, l := range listeners {
		l(offer)
	}
}

// Subscribe registers a callback for incoming offers.
func (a *App) Subscribe(cb func(srapp.SkiRental)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	a.listeners = append(a.listeners, cb)
	return nil
}

// Publish sends one offer to every connected group (and hence to every
// subscriber, however its advertisement was found).
func (a *App) Publish(offer srapp.SkiRental) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(offer); err != nil {
		return fmt.Errorf("srjxta: encode: %w", err)
	}
	eventID := jid.NewMessage()

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	conns := make([]*wireConnection, 0, len(a.conns))
	for _, c := range a.conns {
		conns = append(conns, c)
	}
	a.sent = append(a.sent, offer)
	a.mu.Unlock()

	if len(conns) == 0 {
		return errors.New("srjxta: no wire connection")
	}
	var firstErr error
	sent := 0
	for _, c := range conns {
		m := message.New(a.peer.ID())
		m.AddString(elemNS, elemID, eventID.String())
		m.AddBytes(elemNS, elemEvent, buf.Bytes())
		if err := c.out.Send(m); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	if sent == 0 {
		return fmt.Errorf("srjxta: publish: %w", firstErr)
	}
	return nil
}

// Received returns the offers received so far.
func (a *App) Received() []srapp.SkiRental {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]srapp.SkiRental(nil), a.received...)
}

// Sent returns the offers published so far.
func (a *App) Sent() []srapp.SkiRental {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]srapp.SkiRental(nil), a.sent...)
}

// AwaitReady blocks until at least n groups are connected and leased (or
// unseeded), for benchmark setup.
func (a *App) AwaitReady(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		a.mu.Lock()
		conns := make([]*wireConnection, 0, len(a.conns))
		for _, c := range a.conns {
			conns = append(conns, c)
		}
		a.mu.Unlock()
		for _, c := range conns {
			rdv := a.peer.Rendezvous()
			if g, ok := a.peer.Group(c.groupID); ok && (len(rdv.Config().Seeds) == 0 || len(rdv.ConnectedRendezvous(g.Param())) > 0) {
				ready++
			}
		}
		if ready >= n {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the finder and discovery and tears down every connection.
func (a *App) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	conns := make([]*wireConnection, 0, len(a.conns))
	for _, c := range a.conns {
		conns = append(conns, c)
	}
	a.conns = map[jid.ID]*wireConnection{}
	a.mu.Unlock()

	a.finder.Stop()
	a.disc.Close()
	for _, c := range conns {
		c.in.Close()
		a.peer.LeaveGroup(c.groupID)
	}
}
