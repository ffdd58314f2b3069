package rendezvous

// logserver.go is the serving half of the durability protocol: a
// rendezvous with an event log (Config.Log) appends every propagated
// message before fanning it out, stamping the assigned per-topic
// sequence number and its own identity onto the frame, and answers each
// replay request (replay.go) with one window of what it retains, as the
// recovery core's Serve decides, keeping nothing of it: the subscriber
// pulls, window by window, and asks again for what did not arrive.
// sync.go replicates the log between the members of a replica set.

import (
	"sync"

	"github.com/tps-p2p/tps/internal/eventlog"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/recovery"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/replica"
)

// logServer is the durable part of a Service. It exists only on a
// rendezvous-role service with a log, so edge peers and log-less
// rendezvous carry none of its state and answer none of its ops.
type logServer struct {
	s *Service
	// store views the event log (cfg.Log) as replicated (origin, topic)
	// streams: replay serves copies through it, the sync loop feeds it.
	store *replica.Store

	// logSrc is the rdv:LogSrc stamp of every frame this peer logs: its
	// own ID, the origin of the numbering.
	logSrc message.Element

	replMu    sync.Mutex
	replState map[endpoint.Address]*replicaPeer
}

func newLogServer(s *Service) *logServer {
	return &logServer{
		s:         s,
		store:     replica.NewStore(s.cfg.Log, s.ep.PeerID()),
		logSrc:    message.IDElement(elemNS, elemLogSrc, s.ep.PeerID(), nil),
		replState: make(map[endpoint.Address]*replicaPeer),
	}
}

// logStamps is the room a forwarding hop writes its log stamps in,
// pooled, so that stamping a frame costs no allocation.
type logStamps struct {
	el  [2]message.Element
	seq [8]byte
}

var stampPool = sync.Pool{New: func() any { return new(logStamps) }}

// stamps writes into st, and returns, the log stamps of the frame this
// peer logs as seq: rdv:Seq and rdv:LogSrc, the elements ReplaceUint64
// and ReplaceID write into a message Propagate logs.
func (l *logServer) stamps(st *logStamps, seq uint64) []message.Element {
	st.el = [2]message.Element{message.Uint64Element(elemNS, elemSeq, seq, st.seq[:0]), l.logSrc}
	return st.el[:]
}

// append reserves the topic's next sequence number, has write write
// the frame stamped with it and this peer's identity, stores that frame
// and returns it for the fan-out to send and recycle: the bytes a later
// replay resends are the bytes that leave now, written once. It returns
// nil when the log could not be reached to number the message.
func (l *logServer) append(topic string, write func(seq uint64) ([]byte, error)) []byte {
	var frame []byte
	_, err := l.s.cfg.Log.Append(topic, func(seq uint64) ([]byte, error) {
		var err error
		frame, err = write(seq)
		return frame, err
	})
	if err != nil {
		l.s.stats.logFailures.Add(1)
	}
	return frame
}

// handleReplay answers one replay request as recovery.Serve decides: a
// range signal naming what this peer retains of the origin's log, and
// whether the request's cursor fell in a gap, then at most one window of
// the stored frames after the cursor, in one bounded read, resent
// verbatim to the requester's address, where they re-enter its normal
// propagation handling and its hop filter drops whatever was delivered
// already. It answers on the goroutine that received the request — a
// window is at most W frames handed to the transport's queue — and
// forgets it. The request names the origin whose log numbered the
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
	want, _ := msg.Uint64(elemNS, elemMax)
	_, param, _ := endpoint.Destination(msg)
	st := recovery.Stream{Self: origin == s.ep.PeerID(), Replicates: len(s.cfg.ReplicaSeeds) > 0}
	st.First, st.Last, st.Held = l.store.Range(origin, topic)
	st.Advertised, st.Synced = l.replicaSetHolds(origin, topic)
	v := recovery.Serve(cursor, want, st)
	m := s.newOp(opRange, 6)
	m.AddString(elemNS, elemTopic, topic)
	m.AddID(elemNS, elemLogSrc, origin)
	m.AddUint64(elemNS, elemFirst, v.First)
	m.AddUint64(elemNS, elemLast, v.Last)
	if v.Gap {
		s.stats.replayGaps.Add(1)
		m.AddString(elemNS, elemGap, "true")
	}
	if v.Tentative {
		m.AddString(elemNS, elemTentative, "true")
	}
	_ = s.ep.Send(from, ServiceName, param, m)
	if !v.Serve {
		return
	}
	_ = l.store.Read(origin, topic, v.From, int(v.Max), func(e eventlog.Entry) error {
		if err := s.ep.SendFrame(from, e.Payload); err != nil {
			s.stats.sendFailures.Add(1)
			return err
		}
		s.stats.replayServed.Add(1)
		return nil
	})
}
