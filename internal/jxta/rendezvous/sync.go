package rendezvous

// sync.go is the anti-entropy half of rendezvous replication. A
// rendezvous started with ReplicaSeeds periodically sends each replica
// a digest of every (origin, topic) log stream it holds — its own
// topics plus the copies it maintains — and pulls the missing suffix of
// any stream a replica is ahead on. Records transfer verbatim (origin's
// sequence, timestamp and frame bytes), so converged copies are
// byte-identical on disk and the per-segment CRCs in the digest prove
// it; aligned sequence ranges whose checksums disagree are counted as
// divergence instead of silently papered over.
//
// Replicas are deliberately NOT mesh-seeded with each other: all live
// traffic flows through whichever replica the clients elected active,
// and anti-entropy is the only replication path. That keeps the live
// fan-out hot path untouched (replication off = zero cost) and makes
// convergence reasoning trivial — one log owner numbers each stream,
// everyone else copies.

import (
	"sort"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
	"github.com/tps-p2p/tps/internal/obs"
)

// Sync operations, namespace "rdv".
const (
	opSyncDigest = "syncdig"
	opSyncPull   = "syncpull"
	opSyncRec    = "syncrec"
)

// Sync message element names, namespace "rdv". Pulls and records reuse
// elemLogSrc (stream origin), elemTopic and elemCursor (pull-after)
// from the replay protocol.
const (
	// elemDigest carries a replica.EncodeDigest blob.
	elemDigest = "SyncDigest"
	// elemTime carries a record's original append time in Unix ms.
	elemTime = "TimeMS"
	// elemFrame carries a record's stored propagation frame verbatim.
	elemFrame = "Frame"
)

// DefaultSyncInterval is the anti-entropy digest cadence when
// Config.SyncInterval is zero.
const DefaultSyncInterval = 5 * time.Second

// syncPullBatch caps records served per pull request. After a full
// batch the server re-sends its digest to the requester, which pulls
// again from its new tail — convergence without a "more" flag.
const syncPullBatch = 512

// replicaPeer is what we know about one replica: who answered last,
// when, and the stream tails it advertised.
type replicaPeer struct {
	id       jid.ID
	lastSync time.Time
	remote   []replica.TopicDigest
}

// syncAuthorized gates every inbound anti-entropy op: only a rendezvous
// that is itself replicating (configured with replica seeds) takes part,
// and only messages from a configured replica seed's address are
// honoured. Without the check any peer could durably plant forged
// records under another origin's key on a plain durable rendezvous
// ("replication off by default"), have them mirrored straight to its
// leased clients, or dump its whole log through a pull. Rejections are
// counted; peers with no log at all never get here. The membership
// check also caps replState at the seed-list size — only authorized
// senders ever reach the map. The address returned is the configured
// one: from is a piece of the received frame, and replState keeps its
// key.
func (l *logServer) syncAuthorized(from endpoint.Address) (endpoint.Address, bool) {
	for _, a := range l.s.cfg.ReplicaSeeds {
		if a == from {
			return a, true
		}
	}
	l.s.stats.syncRejects.Add(1)
	return "", false
}

// replicaSetHolds reports what the replica set says about a stream this
// peer holds nothing of. advertised: some synced replica's last digest
// includes a non-empty stream of origin's for topic — proof the stream
// survives in the replica set even if this peer's copy has not arrived
// yet. synced: at least one anti-entropy digest exchange has completed;
// before the first exchange, "I hold nothing of that origin" is evidence
// of not having synced yet, not of loss.
func (l *logServer) replicaSetHolds(origin jid.ID, topic string) (advertised, synced bool) {
	l.replMu.Lock()
	defer l.replMu.Unlock()
	for _, st := range l.replState {
		for _, d := range st.remote {
			if d.Origin == origin && d.Topic == topic && d.Last > 0 {
				return true, true
			}
		}
	}
	return false, len(l.replState) > 0
}

// syncLoop drives the anti-entropy cadence.
func (l *logServer) syncLoop() {
	defer l.s.wg.Done()
	ticker := time.NewTicker(l.s.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.sendDigests()
		case <-l.s.stop:
			return
		}
	}
}

// sendDigests advertises this replica's stream tails to every replica
// seed whose breaker is closed. Unreachable replicas feed the same
// suspect/evict accounting as any other address.
func (l *logServer) sendDigests() {
	s := l.s
	enc := replica.EncodeDigest(l.store.Digest())
	now := s.now()
	for _, addr := range s.cfg.ReplicaSeeds {
		s.mu.Lock()
		skip := s.c.closed || s.c.blocked(addr, now)
		s.mu.Unlock()
		if !skip {
			l.sendDigestTo(addr, enc)
		}
	}
}

// sendDigestTo ships one encoded digest to one replica address.
func (l *logServer) sendDigestTo(addr endpoint.Address, enc []byte) {
	s := l.s
	m := s.newOp(opSyncDigest, 1)
	m.AddBytes(elemNS, elemDigest, enc)
	s.apply(s.now(), input{kind: inSent, from: addr, failed: s.sendCounted(addr, m) != nil})
}

// handleSyncDigest compares a replica's advertised tails with our own
// and pulls the suffix of every stream it is ahead on. Aligned segment
// ranges with mismatched checksums bump the divergence counter — the
// verifiable-digest property.
func (l *logServer) handleSyncDigest(msg *message.Message, from endpoint.Address) {
	from, ok := l.syncAuthorized(from)
	if !ok {
		return
	}
	ds, err := replica.DecodeDigest(msg.Bytes(elemNS, elemDigest))
	if err != nil {
		return
	}
	s := l.s
	s.stats.syncDigests.Add(1)
	l.replMu.Lock()
	l.replState[from] = &replicaPeer{id: msg.Src, lastSync: s.now(), remote: ds}
	l.replMu.Unlock()
	self := s.ep.PeerID()
	for _, d := range ds {
		if replica.Diverged(s.cfg.Log.SegmentDigests(l.store.Key(d.Origin, d.Topic)), d.Segments) {
			s.stats.syncDivergence.Add(1)
		}
		if d.Origin == self {
			continue // our own log is authoritative, never pulled
		}
		local := l.store.Last(d.Origin, d.Topic)
		if d.Last <= local {
			continue
		}
		// A non-empty copy whose tail fell below this replica's retained
		// head can only converge by resetting — but if another synced
		// replica still bridges our tail, pull there first and keep the
		// copy gapless instead.
		if local > 0 && digestFirst(d) > local+1 && l.bridgedElsewhere(from, d.Origin, d.Topic, local) {
			continue
		}
		// Ask for origin's records after our contiguous tail.
		pull := s.newOp(opSyncPull, 3)
		pull.AddID(elemNS, elemLogSrc, d.Origin)
		pull.AddString(elemNS, elemTopic, d.Topic)
		pull.AddUint64(elemNS, elemCursor, local)
		_ = s.sendCounted(from, pull)
	}
}

// digestFirst returns the first sequence a stream digest shows
// retained, 0 for an empty stream.
func digestFirst(d replica.TopicDigest) uint64 {
	if len(d.Segments) == 0 {
		return 0
	}
	return d.Segments[0].FirstSeq
}

// bridgedElsewhere reports whether a replica other than except
// advertised records contiguous with our tail (retained head at or
// below local+1 and entries beyond local): pulling from it extends the
// copy without a retention-gap reset.
func (l *logServer) bridgedElsewhere(except endpoint.Address, origin jid.ID, topic string, local uint64) bool {
	l.replMu.Lock()
	defer l.replMu.Unlock()
	for addr, st := range l.replState {
		if addr == except {
			continue
		}
		for _, d := range st.remote {
			if d.Origin != origin || d.Topic != topic || d.Last <= local {
				continue
			}
			if f := digestFirst(d); f > 0 && f <= local+1 {
				return true
			}
		}
	}
	return false
}

// handleSyncPull serves one batch of a stream's records to a replica
// that is behind. A full batch means there may be more: the server
// follows up with a fresh digest so the requester pulls the rest.
func (l *logServer) handleSyncPull(msg *message.Message, from endpoint.Address) {
	from, ok := l.syncAuthorized(from)
	if !ok {
		return
	}
	origin, err := msg.GetID(elemNS, elemLogSrc)
	topic := msg.Text(elemNS, elemTopic)
	after, ok := msg.Uint64(elemNS, elemCursor)
	if err != nil || topic == "" || !ok {
		return
	}
	s := l.s
	s.stats.syncPulls.Add(1)
	// Each record names our retained head for the stream, so a requester
	// whose tail fell below it can tell an origin-side retention gap
	// (reset and restart at the head) from a transient reorder (skip and
	// re-pull).
	srcFirst, _, _ := l.store.Range(origin, topic)
	served := 0
	_ = l.store.Read(origin, topic, after, syncPullBatch, func(e eventlog.Entry) error {
		rec := s.newOp(opSyncRec, 6)
		rec.AddID(elemNS, elemLogSrc, origin)
		rec.AddString(elemNS, elemTopic, topic)
		rec.AddUint64(elemNS, elemSeq, e.Seq)
		rec.AddUint64(elemNS, elemTime, uint64(e.TimeMS))
		rec.AddUint64(elemNS, elemFirst, srcFirst)
		rec.AddBytes(elemNS, elemFrame, e.Payload)
		if err := s.sendCounted(from, rec); err != nil {
			return err
		}
		served++
		return nil
	})
	s.stats.syncRecords.Add(int64(served))
	if served == syncPullBatch {
		l.sendDigestTo(from, replica.EncodeDigest(l.store.Digest()))
	}
}

// handleSyncRec applies one pulled record to the local copy of the
// origin's stream and mirrors it live to any of our own leased clients
// in that group — their seen caches drop anything already delivered.
// Out-of-order arrivals are skipped (the next digest round re-pulls
// from the contiguous tail), so application is exactly-once — except
// when the record's stamped retained head proves the sender trimmed
// past our tail: then the copy is reset and restarted at the head (a
// counted retention gap), because the bridge records no longer exist
// anywhere and waiting would re-pull the same batch forever.
func (l *logServer) handleSyncRec(msg *message.Message, from endpoint.Address) {
	from, ok := l.syncAuthorized(from)
	if !ok {
		return
	}
	origin, err := msg.GetID(elemNS, elemLogSrc)
	topic := msg.Text(elemNS, elemTopic)
	seq, okSeq := msg.Uint64(elemNS, elemSeq)
	timeMS, okTime := msg.Uint64(elemNS, elemTime)
	srcFirst, okFirst := msg.Uint64(elemNS, elemFirst)
	frame := msg.Bytes(elemNS, elemFrame)
	if err != nil || topic == "" || !okSeq || !okTime || !okFirst || seq == 0 || len(frame) == 0 {
		return
	}
	s := l.s
	applied, reset, err := l.store.Apply(origin, topic, seq, int64(timeMS), frame, srcFirst)
	if reset {
		s.stats.syncResets.Add(1)
	}
	if err != nil {
		s.stats.logFailures.Add(1)
		return
	}
	if !applied {
		return
	}
	s.stats.syncApplied.Add(1)
	// Mirror the freshly replicated frame — the origin's stored fan-out
	// frame, resent verbatim — to our own leased clients in the stream's
	// group; receive-side dedupe absorbs anything a client already saw
	// live. This is what keeps a standby's clients current while the
	// primary is unreachable from them but not from the replica set.
	tl := s.targets(topic)
	defer targetPool.Put(tl)
	now := s.now()
	for _, t := range *tl {
		if now.After(t.clientExpires) {
			continue
		}
		if err := s.ep.SendFrame(t.addr, frame); err != nil {
			s.stats.sendFailures.Add(1)
			s.apply(now, input{kind: inSent, from: t.addr, failed: true})
		}
	}
}

// ReplicasView reports the state of this peer's replica set for the
// admin surface: one entry per configured replica with the time since
// it last answered a digest and, per advertised stream, its tail next
// to ours. LastSyncAgoMS is -1 for a replica that never synced. Nil on
// a peer that replicates nothing.
func (s *Service) ReplicasView() []obs.ReplicaEntry {
	l := s.logs
	if l == nil || len(s.cfg.ReplicaSeeds) == 0 {
		return nil
	}
	now := s.now()
	l.replMu.Lock()
	defer l.replMu.Unlock()
	out := make([]obs.ReplicaEntry, 0, len(s.cfg.ReplicaSeeds))
	for _, addr := range s.cfg.ReplicaSeeds {
		re := obs.ReplicaEntry{Addr: string(addr), LastSyncAgoMS: -1}
		if st := l.replState[addr]; st != nil {
			re.ID = st.id.String()
			re.LastSyncAgoMS = now.Sub(st.lastSync).Milliseconds()
			for _, d := range st.remote {
				re.Topics = append(re.Topics, obs.ReplicaTopicLag{
					Origin:     d.Origin.String(),
					Topic:      d.Topic,
					LocalLast:  l.store.Last(d.Origin, d.Topic),
					RemoteLast: d.Last,
				})
			}
			sort.Slice(re.Topics, func(i, j int) bool {
				if re.Topics[i].Topic != re.Topics[j].Topic {
					return re.Topics[i].Topic < re.Topics[j].Topic
				}
				return re.Topics[i].Origin < re.Topics[j].Origin
			})
		}
		out = append(out, re)
	}
	return out
}
