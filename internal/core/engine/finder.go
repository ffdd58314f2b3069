package engine

import (
	"time"

	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// finder.go is the TPSAdvertisementsFinder block (paper Figure 16): a
// background loop that keeps searching for advertisements related to the
// tracked types — so a publisher reaches the maximum number of
// interested subscribers even when their groups appeared later — and an
// advertisement listener that attaches every new matching group.

// finderLoop queries the net group for advertisements of every tracked
// type subtree: once per FindInterval, and at once when a caller starts
// tracking a type or the net group is granted a lease (a round run
// before that reached nobody).
func (e *Engine) finderLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.fint)
	defer ticker.Stop()
	for {
		e.findOnce()
		select {
		case <-ticker.C:
		case <-e.kick:
		case <-e.stop:
			return
		}
	}
}

// findOnce issues one round of discovery queries: for each tracked root
// path P, an exact query for "PS.P" and a prefix query for "PS.P/*"
// (the subtype closure), mirroring the paper's
// getRemoteAdvertisements(..., "Name", prefix+"*", N).
func (e *Engine) findOnce() {
	disc := e.peer.Discovery()
	if disc == nil {
		return
	}
	e.mu.Lock()
	names := make([]string, 0, 2*len(e.tracked))
	for p := range e.tracked {
		names = append(names, PSPrefix+p, PSPrefix+p+"/*")
	}
	closed := e.closed
	e.mu.Unlock()
	if closed || len(names) == 0 {
		return
	}
	// A query that reached nobody (no lease yet, every send refused) is
	// no reason to stop: the cache below is searched all the same, and
	// the round is counted as failed.
	e.stats.findRounds.Add(1)
	failed := false
	for _, name := range names {
		if err := disc.GetRemoteAdvertisements(name, 0); err != nil {
			failed = true
		}
	}
	if failed {
		e.stats.findRoundsFailed.Add(1)
	}
	// Local cache hits (e.g. advertisements that arrived via unsolicited
	// remote publish before we started tracking) attach too.
	for _, name := range names {
		for _, rec := range disc.GetLocalAdvertisements(name) {
			e.considerAdvertisement(rec.Adv)
		}
	}
}

// onAdvertisement is the engine's discovery listener: every
// advertisement a remote peer sends us is considered for attachment.
func (e *Engine) onAdvertisement(pg *adv.PeerGroupAdv, _ jid.ID) {
	e.considerAdvertisement(pg)
}

// considerAdvertisement attaches to the advertised group if it carries a
// wire service for a tracked type (or a subtype of one) that this peer
// has registered. A group of a subtype registered later is attached then:
// the finder considers what its cache holds every round.
func (e *Engine) considerAdvertisement(pg *adv.PeerGroupAdv) {
	svc, ok := pg.Service(wire.ServiceName)
	if !ok || svc.Pipe == nil {
		return
	}
	path, ok := advPath(pg.Name)
	if !ok {
		return
	}
	// The group's events are decoded into the type registered under its
	// path: of a type this peer has not registered, none could be.
	node, ok := e.reg.NodeByPath(path)
	if !ok {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	interested := false
	for root := range e.tracked {
		if typereg.CoversPath(root, path) {
			interested = true
			break
		}
	}
	_, already := e.attachments[path][pg.GroupID]
	inProgress := e.creating[pg.GroupID]
	if interested && !already && !inProgress {
		e.creating[pg.GroupID] = true
	}
	e.mu.Unlock()
	if !interested || already || inProgress {
		return
	}
	e.stats.advsFound.Add(1)
	if err := e.attach(pg, node); err != nil {
		e.mu.Lock()
		delete(e.creating, pg.GroupID)
		e.mu.Unlock()
	}
}

// advPath extracts the type path from an advertisement name
// ("PS.figA/figC" -> "figA/figC").
func advPath(name string) (string, bool) {
	if len(name) <= len(PSPrefix) || name[:len(PSPrefix)] != PSPrefix {
		return "", false
	}
	return name[len(PSPrefix):], true
}
