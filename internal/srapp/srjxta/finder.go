package srjxta

import (
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/jid"
)

// AdvertisementsFinder is the hand-written analogue of the paper's
// Figure 16: a thread that keeps looking for peer-group advertisements
// whose name matches a prefix, de-duplicates them by group ID
// (findAdvertisement) and dispatches fresh ones to the registered
// listeners.
type AdvertisementsFinder struct {
	disc   *discovery.Service
	prefix string

	mu        sync.Mutex
	known     map[jid.ID]bool // group IDs already dispatched
	listeners []func(*adv.PeerGroupAdv)
	running   bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// SleepingTime is the finder loop period — the paper's SLEEPING_TIME.
const SleepingTime = 250 * time.Millisecond

// NumberOfAdvPerPeer bounds each remote query's response size — the
// paper's NUMBER_OF_ADV_PER_PEER.
const NumberOfAdvPerPeer = 10

// NewAdvertisementsFinder builds a finder, over the given discovery
// service, for advertisements whose name starts with prefix.
func NewAdvertisementsFinder(disc *discovery.Service, prefix string) *AdvertisementsFinder {
	return &AdvertisementsFinder{
		disc:   disc,
		prefix: prefix,
		known:  make(map[jid.ID]bool),
		stop:   make(chan struct{}),
	}
}

// AddListener registers a dispatch target for newly found
// advertisements.
func (f *AdvertisementsFinder) AddListener(l func(*adv.PeerGroupAdv)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.listeners = append(f.listeners, l)
}

// Start launches the finder thread. Like the paper's run(), it first
// flushes stale cached advertisements, then loops: remote query, sleep,
// local harvest, dispatch.
func (f *AdvertisementsFinder) Start() {
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return
	}
	f.running = true
	f.mu.Unlock()

	if f.disc != nil {
		f.disc.Flush()
	}
	f.wg.Add(1)
	go f.run()
}

// Stop terminates the finder thread.
func (f *AdvertisementsFinder) Stop() {
	f.mu.Lock()
	if !f.running {
		f.mu.Unlock()
		return
	}
	f.running = false
	f.mu.Unlock()
	close(f.stop)
	f.wg.Wait()
}

func (f *AdvertisementsFinder) run() {
	defer f.wg.Done()
	ticker := time.NewTicker(SleepingTime)
	defer ticker.Stop()
	for {
		f.findOnce()
		select {
		case <-ticker.C:
		case <-f.stop:
			return
		}
	}
}

func (f *AdvertisementsFinder) findOnce() {
	disc := f.disc
	if disc == nil {
		return
	}
	// Remote query for fresh advertisements ("Name", prefix+"*").
	_ = disc.GetRemoteAdvertisements(f.prefix+"*", NumberOfAdvPerPeer)
	// Harvest whatever the local cache now holds.
	for _, rec := range disc.GetLocalAdvertisements(f.prefix + "*") {
		f.handleNewAdvertisement(rec.Adv)
	}
}

// findAdvertisement reports whether the advertisement's group is already
// known — the paper's vector scan by GID.
func (f *AdvertisementsFinder) findAdvertisement(pg *adv.PeerGroupAdv) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.known[pg.GroupID]
}

// handleNewAdvertisement dispatches an advertisement exactly once.
func (f *AdvertisementsFinder) handleNewAdvertisement(pg *adv.PeerGroupAdv) {
	if f.findAdvertisement(pg) {
		return
	}
	f.mu.Lock()
	if f.known[pg.GroupID] {
		f.mu.Unlock()
		return
	}
	f.known[pg.GroupID] = true
	listeners := make([]func(*adv.PeerGroupAdv), len(f.listeners))
	copy(listeners, f.listeners)
	f.mu.Unlock()
	for _, l := range listeners {
		l(pg)
	}
}
