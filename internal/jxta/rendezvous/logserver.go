package rendezvous

// logserver.go is the serving half of the durability protocol: a
// rendezvous with an event log (Config.Log) appends every propagated
// message before fanning it out, stamping the assigned per-topic
// sequence number and its own identity onto the frame, and serves
// replay requests (replay.go) from what it retains, as the recovery
// core's Serve decides. sync.go replicates the log between the members
// of a replica set.

import (
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/recovery"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
)

// A replay is served replaySlice frames per replayTick — 32 frames a
// millisecond — and not as one burst. A burst hands the whole retained
// suffix to the transport at the speed the log reads, several times
// what a tcpnet flusher writes: the per-host queue (1024 frames, oldest
// shed first) then drops the head of any replay deeper than itself
// before it is written, and live frames to the same peer wait behind
// the rest. Paced below what a flusher drains, the queue stays a slice
// deep. The pace also makes catch-up repeatable: a 15 ms burst takes
// whatever the host does in those 15 ms straight into its duration
// (bench catchup800_2k: 44 k to 70 k events/s from one run to the
// next), a schedule with idle time in every tick absorbs it. It is a
// ceiling, not flow control: a requester slower than the pace still
// backs the queue up, as before.
const (
	replaySlice = 64
	replayTick  = 2 * time.Millisecond
)

// logServer is the durable part of a Service. It exists only on a
// rendezvous-role service with a log, so edge peers and log-less
// rendezvous carry none of its state and answer none of its ops.
type logServer struct {
	s *Service
	// store views the event log (cfg.Log) as replicated (origin, topic)
	// streams: replay serves copies through it, the sync loop feeds it.
	store *replica.Store

	replMu    sync.Mutex
	replState map[endpoint.Address]*replicaPeer
}

func newLogServer(s *Service) *logServer {
	return &logServer{
		s:         s,
		store:     replica.NewStore(s.cfg.Log, s.ep.PeerID()),
		replState: make(map[endpoint.Address]*replicaPeer),
	}
}

// append reserves the topic's next sequence number, stamps it and this
// peer's identity onto msg, stores the propagation frame — encoded with
// the fan-out's envelope — and returns it for the fan-out to send and
// recycle: the bytes a later replay resends are the bytes that leave
// now, encoded once. It returns nil when the log could not be reached to
// number the message.
func (l *logServer) append(msg *message.Message, topic string, envelope []message.Field) []byte {
	s := l.s
	var frame []byte
	_, err := s.cfg.Log.Append(topic, func(seq uint64) ([]byte, error) {
		msg.ReplaceUint64(elemNS, elemSeq, seq)
		msg.ReplaceID(elemNS, elemLogSrc, s.ep.PeerID())
		var err error
		frame, err = s.ep.EncodeFrame(ServiceName, topic, msg, envelope...)
		return frame, err
	})
	if err != nil {
		s.stats.logFailures.Add(1)
	}
	return frame
}

// handleReplay answers one replay request as recovery.Serve decides:
// a gap signal, then the stored frames after the cursor, resent
// verbatim to the requester's address, where they re-enter its normal
// propagation handling and the seen caches drop whatever was already
// delivered live. The request names the origin whose log numbered the
// cursor: this peer's own, or one this replica holds a copy of.
func (l *logServer) handleReplay(msg *message.Message, from endpoint.Address) {
	s := l.s
	topic := msg.Text(elemNS, elemTopic)
	cursor, ok := msg.Uint64(elemNS, elemCursor)
	origin, err := msg.GetID(elemNS, elemLogSrc)
	if topic == "" || !ok || err != nil {
		// A malformed cursor must not read as "replay everything".
		return
	}
	_, param, _ := endpoint.Destination(msg)
	st := recovery.Stream{Self: origin == s.ep.PeerID(), Replicates: len(s.cfg.ReplicaSeeds) > 0}
	st.First, st.Last, st.Held = l.store.Range(origin, topic)
	st.Advertised, st.Synced = l.replicaSetHolds(origin, topic)
	v := recovery.Serve(cursor, st)
	if v.Gap {
		l.sendGap(from, param, topic, origin, v.First, v.Last, v.Tentative)
	}
	if !v.Serve {
		return
	}
	// Serve the suffix off the goroutine that delivered the request: a
	// transport's receive goroutine — on netsim the node's one
	// dispatcher, on tcpnet the reader of the requester's connection —
	// which a paced replay would hold for its whole length, and every
	// frame behind it with it: live events, renewals, pongs.
	s.mu.Lock()
	if s.c.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go l.serveReplay(from, origin, topic, v.From)
}

// serveReplay sends the requester origin's stream of topic after cursor,
// a slice per tick (see replaySlice), until the stream ends or the
// service closes. Each slice is a Read of its own, so the topic is
// locked while a slice is read and sent, never while the replay waits
// for its next tick.
func (l *logServer) serveReplay(to endpoint.Address, origin jid.ID, topic string, cursor uint64) {
	s := l.s
	defer s.wg.Done()
	served := 0
	next := time.Now()
	for {
		n := 0
		err := l.store.Read(origin, topic, cursor, replaySlice, func(e eventlog.Entry) error {
			if err := s.ep.SendFrame(to, e.Payload); err != nil {
				s.stats.sendFailures.Add(1)
				return err
			}
			cursor = e.Seq
			n++
			return nil
		})
		served += n
		if err != nil || n < replaySlice {
			break
		}
		// A slice that overran its tick does not earn a burst later.
		if next = next.Add(replayTick); time.Now().After(next) {
			next = time.Now()
		}
		if !s.sleepUntil(next) {
			break
		}
	}
	s.stats.replayServed.Add(int64(served))
}

// sleepUntil waits for t and reports whether it came before the
// service closed.
func (s *Service) sleepUntil(t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.stop:
		return false
	}
}

// sendGap tells a requester that its cursor into origin's log predates
// what is retained here, bounding what is still available. tentative
// qualifies an unbounded gap from a replica that has not completed a
// first anti-entropy exchange yet.
func (l *logServer) sendGap(to endpoint.Address, param, topic string, origin jid.ID, first, last uint64, tentative bool) {
	l.s.stats.replayGaps.Add(1)
	m := l.s.newOp(opGap, 5)
	m.AddString(elemNS, elemTopic, topic)
	m.AddID(elemNS, elemLogSrc, origin)
	m.AddUint64(elemNS, elemFirst, first)
	m.AddUint64(elemNS, elemLast, last)
	if tentative {
		m.AddString(elemNS, elemTentative, "true")
	}
	_ = l.s.ep.Send(to, ServiceName, param, m)
}
