package peer

import (
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/peergroup"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
)

// EnableDaemon turns this peer into a wildcard rendezvous daemon: one
// rendezvous, resolver and discovery instance that serve every peer
// group (endpoint parameter ""), so a single daemon can bridge the
// per-type groups the TPS layer creates without joining each one. The
// peer keeps its normal net group stack; the daemon stack runs
// alongside it, configured from the peer's rendezvous template — seeds
// (for meshing with other daemons), log and replica set included — and
// is closed with the peer.
func (p *Peer) EnableDaemon() (*peergroup.Core, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	rcfg := p.cfg.Rendezvous
	rcfg.Role = rendezvous.RoleRendezvous
	rcfg.GroupParam = "" // wildcard: serve every group
	d, err := peergroup.NewCore(p.ep, rcfg)
	if err != nil {
		return nil, fmt.Errorf("peer daemon: %w", err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		d.Close()
		return nil, ErrClosed
	}
	p.daemon = d
	p.mu.Unlock()
	return d, nil
}
