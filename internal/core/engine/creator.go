package engine

import (
	"errors"
	"fmt"

	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// creator.go is the AdvertisementsCreator block (paper Figure 15): one
// type is represented by one peer-group advertisement that embeds the
// wire service bound to the type's propagated pipe; the pipe's name is
// the name of the type.

// createTypeAdvertisement assembles the advertisement for a type: a
// fresh peer group carrying the wire service and its propagated pipe.
func createTypeAdvertisement(peerID jid.ID, node *typereg.Node) *adv.PeerGroupAdv {
	groupID := jid.NewGroup()
	pipeAdv := &adv.PipeAdv{
		PipeID: jid.NewPipeIn(groupID),
		Type:   adv.PipePropagate,
		Name:   PSPrefix + node.Path(),
	}
	groupAdv := &adv.PeerGroupAdv{
		GroupID:    groupID,
		PeerID:     peerID,
		Name:       PSPrefix + node.Path(),
		Desc:       "TPS event group for type " + node.Path(),
		GroupImpl:  "go-jxta-stdgroup",
		App:        "tps",
		Rendezvous: true,
	}
	groupAdv.SetService(adv.ServiceAdv{
		Name:     wire.ServiceName,
		Version:  "1.0",
		Keywords: pipeAdv.Name,
		Pipe:     pipeAdv,
	})
	return groupAdv
}

// createAndAttach creates this peer's own advertisement for the type,
// publishes it (locally and into the mesh, the paper's
// publishAdvertisement doing publish + remotePublish) and attaches to
// the new group.
func (e *Engine) createAndAttach(node *typereg.Node) error {
	disc := e.peer.Discovery()
	if disc == nil {
		return ErrClosed
	}
	groupAdv := createTypeAdvertisement(e.peer.ID(), node)
	// Claim the group before the advertisement can reach our own finder
	// (it lands in the local discovery cache immediately), or the finder
	// would race us into a second attach.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.creating[groupAdv.GroupID] = true
	e.mu.Unlock()
	// RemotePublish caches the advertisement before it propagates it, so
	// a propagation that reached nobody (an isolated peer, no lease yet)
	// still leaves it where queries find it. Only a closed discovery
	// published nothing.
	if err := disc.RemotePublish(groupAdv, 0); errors.Is(err, discovery.ErrClosed) {
		e.mu.Lock()
		delete(e.creating, groupAdv.GroupID)
		e.mu.Unlock()
		return fmt.Errorf("tps: publish type advertisement: %w", err)
	}
	e.stats.advsCreated.Add(1)
	return e.attach(groupAdv, node)
}
