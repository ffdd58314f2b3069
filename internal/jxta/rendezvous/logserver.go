package rendezvous

// logserver.go is the serving half of the durability protocol: a
// rendezvous with an event log (Config.Log) appends every propagated
// message before fanning it out, stamping the assigned per-topic
// sequence number and its own identity onto the frame, and answers each
// ranged read of what it retains — a subscriber's replay request
// (replay.go) and a replica's sync pull (sync.go) alike — with one
// window, as the recovery core's Serve decides, keeping nothing of it:
// the requester pulls, window by window, and asks again for what did
// not arrive.

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

// serve answers one ranged read — a subscriber's replay request or a
// replica seed's sync pull for a window of origin's log after a cursor,
// the origin being this peer or one it holds a copy of — as
// recovery.Serve decides: a range signal naming what this peer retains
// of that log, the window it serves and any gap, then that window, in
// one bounded read. It answers on the goroutine that received the
// request and forgets it: the requester pulls the next. The role
// changes the form of a record alone: a subscriber gets the stored
// frame, which re-enters its propagation handling and hop filter; a
// seed gets a sync record of it with this peer's retained head, and the
// range signal in no group, the request's, for its log server to take.
func (l *logServer) serve(msg *message.Message, from endpoint.Address) {
	s := l.s
	pull := msg.Text(elemNS, elemOp) == opSyncPull
	if pull && !l.syncAuthorized(&from) {
		return
	}
	topic := msg.Text(elemNS, elemTopic)
	cursor, ok := msg.Uint64(elemNS, elemCursor)
	origin, err := msg.GetID(elemNS, elemLogSrc)
	if topic == "" || !ok || err != nil {
		// A malformed cursor must not read as "replay everything".
		return
	}
	want, _ := msg.Uint64(elemNS, elemMax)
	_, group, _ := endpoint.Destination(msg)
	st := recovery.Stream{Self: origin == s.ep.PeerID(), Replicates: len(s.cfg.ReplicaSeeds) > 0}
	st.First, st.Last, st.Held = l.store.Range(origin, topic)
	st.Advertised, st.Synced = l.replicaSetHolds(origin, topic)
	v := recovery.Serve(cursor, want, st)
	m := s.newOp(opRange, 6)
	m.AddString(elemNS, elemTopic, topic)
	m.AddID(elemNS, elemLogSrc, origin)
	m.AddUint64(elemNS, elemFirst, v.First)
	m.AddUint64(elemNS, elemLast, v.Last)
	if v.Serve {
		m.AddUint64(elemNS, elemCursor, v.From)
	}
	if v.Gap {
		m.AddString(elemNS, elemGap, "true")
	}
	if v.Tentative {
		m.AddString(elemNS, elemTentative, "true")
	}
	served := &s.stats.replayServed
	if pull {
		s.stats.syncPulls.Add(1)
		served = &s.stats.syncRecords
	} else if v.Gap {
		s.stats.replayGaps.Add(1)
	}
	_ = s.ep.Send(from, ServiceName, group, m)
	if !v.Serve {
		return
	}
	_ = l.store.Read(origin, topic, v.From, int(v.Max), func(e eventlog.Entry) error {
		var err error
		if pull {
			rec := s.newOp(opSyncRec, 6)
			rec.AddID(elemNS, elemLogSrc, origin)
			rec.AddString(elemNS, elemTopic, topic)
			rec.AddUint64(elemNS, elemSeq, e.Seq)
			rec.AddUint64(elemNS, elemTime, uint64(e.TimeMS))
			rec.AddUint64(elemNS, elemFirst, v.First)
			rec.AddBytes(elemNS, elemFrame, e.Payload)
			err = s.ep.Send(from, ServiceName, "", rec)
		} else {
			err = s.ep.SendFrame(from, e.Payload)
		}
		if err != nil {
			s.stats.sendFailures.Add(1)
			return err
		}
		served.Add(1)
		return nil
	})
}
