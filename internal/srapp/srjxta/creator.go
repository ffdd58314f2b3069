package srjxta

import (
	"fmt"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/discovery"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// AdvertisementsCreator is the hand-written analogue of the paper's
// Figure 15: it assembles a peer-group advertisement embedding the wire
// service and its pipe, and publishes it both to the local cache and to
// the mesh.
type AdvertisementsCreator struct {
	peer *peer.Peer
	disc *discovery.Service
}

// NewAdvertisementsCreator builds a creator for the peer, publishing
// through the given discovery service of its net group.
func NewAdvertisementsCreator(p *peer.Peer, disc *discovery.Service) *AdvertisementsCreator {
	return &AdvertisementsCreator{peer: p, disc: disc}
}

// CreatePeerGroupAdvertisement follows the paper's recipe line by line:
// create a PipeAdvertisement whose name is the type we are interested
// in, create the PeerGroupAdvertisement, and add the wire service
// (bound to the pipe) to its service table.
func (c *AdvertisementsCreator) CreatePeerGroupAdvertisement(name string) (*adv.PeerGroupAdv, error) {
	groupID := jid.NewGroup()
	pipeAdv := &adv.PipeAdv{
		PipeID: jid.NewPipeIn(groupID),
		Type:   adv.PipePropagate,
		Name:   name, // the pipe's name is the name of the type
	}
	groupAdv := &adv.PeerGroupAdv{
		GroupID:    groupID,
		PeerID:     c.peer.ID(),
		Name:       PSPrefix + pipeAdv.Name,
		Desc:       "ski-rental event group (hand-written)",
		GroupImpl:  "go-jxta-stdgroup",
		App:        "skirental",
		Rendezvous: true,
	}
	groupAdv.SetService(adv.ServiceAdv{
		Name:     wire.ServiceName,
		Version:  "1.0",
		Keywords: pipeAdv.Name,
		Pipe:     pipeAdv,
	})
	return groupAdv, nil
}

// PublishAdvertisement writes the advertisement to the local cache (for
// peers querying us) and pushes it to the other peers — the paper's
// publish + remotePublish pair.
func (c *AdvertisementsCreator) PublishAdvertisement(a *adv.PeerGroupAdv) error {
	disc := c.disc
	if disc == nil {
		return ErrClosed
	}
	if err := disc.Publish(a, 0, 0); err != nil {
		return fmt.Errorf("srjxta: publish advertisement: %w", err)
	}
	// Remote publication may fail while no rendezvous is connected yet;
	// the finder's periodic remote queries compensate, as in JXTA.
	_ = disc.RemotePublish(a, 0)
	return nil
}
