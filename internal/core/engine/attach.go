package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// attach.go is the Connections block: it turns a type into a live
// attachment — the endpoint handler that reads the events of its group
// (the paper's TPSPipeReader over TPSMyInputPipe) and the group's lease
// on the peer's rendezvous service, which publish propagates into
// (TPSMyOutputPipe).

// EventService is the endpoint service an event frame is addressed to,
// under its group's parameter. It is the name JXTA's wire service
// registered under (WireService.WireName) and it stays so: every frame
// already stored in an event log is addressed to it.
const EventService = "jxta.service.wire"

// TPS message element names, namespace "tps". An event is its ID and its
// gob blob: the attachment's group fixes the type, and every peer speaks
// gob (the common type model of §3.2). A frame that still carries the
// tps:Path and tps:Codec elements of earlier versions, or the wire:ID
// element of the pipe that used to carry it, decodes all the same;
// nothing reads them.
const (
	elemNS      = "tps"
	elemEventID = "EventID"
	elemData    = "Data"
)

// attachment is one type's live binding to its group.
type attachment struct {
	path string
	node *typereg.Node // the type every event in the group is decoded into
	// param is the group's ID as a string: the endpoint parameter its
	// frames are addressed to, its lease and the log topic of its events.
	param string
	// The peer's rendezvous service carries every group and outlives
	// this attachment: its listeners go when the attachment closes.
	gapTok, leaseTok int

	// Replay cursors: highest log sequence delivered, per origin
	// rendezvous, plus the rendezvous that granted a lease and have not
	// been sent this connection epoch's replay request yet — empty
	// between epochs.
	curMu   sync.Mutex
	cursors map[jid.ID]*cursorState
	owed    map[jid.ID]struct{}
}

// attach registers the handler for the group of the registered type
// node, leases the group and registers the attachment, unless the
// engine holds one for the type already. The caller holds e.attachMu.
func (e *Engine) attach(node *typereg.Node) (*attachment, error) {
	path := node.Path()
	if a, err := e.attached(path); a != nil || err != nil {
		return a, err
	}
	a := &attachment{path: path, node: node, param: TypeGroup(path).String()}
	err := e.peer.Endpoint().RegisterHandler(EventService, a.param, func(m *message.Message, _ endpoint.Address) {
		e.onWireMessage(a, m)
	})
	if err != nil {
		return nil, fmt.Errorf("tps: attach %s: %w", path, err)
	}
	// Replay gaps surface as exceptions on this attachment's path.
	a.gapTok = e.rdv.AddGapListener(e.onGapSignal(a))
	// Every lease for the group granted from here on is owed a replay
	// request, and so is every lease the group already holds: taken
	// after the listener is in place, so a grant in between is in one or
	// both. A new lease can make the attachment ready, too.
	a.leaseTok = e.rdv.AddLeaseListener(func(id jid.ID, group string) {
		if group != a.param && group != "" {
			return
		}
		a.oweReplay(id)
		e.kickReplay()
		e.broadcast()
	})
	e.rdv.Join(a.param)
	a.oweReplay(e.rdv.ConnectedRendezvous(a.param)...)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.detach(a)
		return nil, ErrClosed
	}
	e.attachments[path] = a
	e.cond.Broadcast()
	e.mu.Unlock()
	// The replay loop can see the attachment now; leases granted while
	// it could not are still owed.
	e.kickReplay()
	return a, nil
}

// newEventMessage assembles the two-element TPS event, which fits the
// room a new message comes with: the event ID crosses the wire in
// binary form (message.AddID), not as a parsed-back URN string, and the
// event's gob blob is written into the message's payload room — a blob
// too large for it moves into one of its own.
func newEventMessage(src, eventID jid.ID, event any) (*message.Message, error) {
	msg := message.New(src)
	msg.AddID(elemNS, elemEventID, eventID)
	blob, err := codec.Gob{}.AppendEncode(msg.PayloadRoom(), event)
	if err != nil {
		return nil, err
	}
	msg.AddBytes(elemNS, elemData, blob)
	return msg, nil
}

// publish delivers a published event to the local subscribers, then
// gives its message to the rendezvous to propagate into the group.
//
// The local subscribers get the value that was published, not a decode
// of the blob: TPS events are immutable by contract once published
// (callbacks filter and read them, §4.2), so sharing the value is
// observationally the same for a conforming application, and a publish
// decodes nothing. Otherwise the delivery is a received event's: the
// event ID is observed in the dedupe cache — a replay of this peer's own
// events from a rendezvous' log is dropped as a duplicate, and the mesh
// never sends a publisher its own event, which is on the frame's path —
// the delivery is counted, and a traced event's deliver hop and transit
// are recorded. Propagate takes msg and stamps it, so msg is read here
// first. A peer nobody can be reached from has still delivered locally:
// that is not an error.
func (e *Engine) publish(a *attachment, eventID jid.ID, event any, msg *message.Message) error {
	e.dedupe.Observe(eventID)
	e.traceDeliver(msg)
	e.deliver(event, msg.Src)
	if err := e.rdv.Propagate(msg, EventService, a.param); err != nil && !errors.Is(err, rendezvous.ErrNoPeers) {
		return fmt.Errorf("propagate: %w", err)
	}
	return nil
}

// ready reports whether the attachment can reach beyond this process:
// its group holds a rendezvous lease, or the peer was never seeded
// (loopback only).
func (e *Engine) ready(a *attachment) bool {
	return len(e.rdv.Config().Seeds) == 0 || len(e.rdv.ConnectedRendezvous(a.param)) > 0
}

// detach unregisters the attachment's handler and ends its lease.
func (e *Engine) detach(a *attachment) {
	e.peer.Endpoint().UnregisterHandler(EventService, a.param)
	e.rdv.RemoveGapListener(a.gapTok)
	e.rdv.RemoveLeaseListener(a.leaseTok)
	e.rdv.Leave(a.param)
}

// onWireMessage is the group's reader: it deduplicates, decodes and
// dispatches one event off the network. Events this peer publishes never
// come through here: publish delivers them locally by value.
//
// Decode-once: the payload of any given event is gob-decoded at most
// once on this peer. Deduplication runs before the decode, so an event
// echoed through several mesh paths or replayed decodes on first
// arrival only; the decoded value is then shared across every matching
// subscription and interface callback (dispatch fans the same value
// out).
func (e *Engine) onWireMessage(a *attachment, msg *message.Message) {
	eventID, err := msg.GetID(elemNS, elemEventID)
	if err != nil {
		e.stats.decodeErrors.Add(1)
		return
	}
	// Advance the replay cursor before deduplication: a replayed event
	// that was already delivered live still moves the cursor forward, so
	// the next reconnect asks for less.
	if origin, seq, ok := rendezvous.ReplayInfo(msg); ok {
		a.noteCursor(origin, seq)
	}
	// The same event can arrive live and replayed, or over two
	// rendezvous; deliver it exactly once (the duplicate handling the
	// paper's SR-JXTA application reimplements by hand).
	if !e.dedupe.Observe(eventID) {
		e.stats.duplicateEvents.Add(1)
		return
	}
	e.traceDeliver(msg)
	value, err := (codec.Gob{}).Decode(msg.Bytes(elemNS, elemData), a.node.Type())
	if err != nil {
		e.stats.decodeErrors.Add(1)
		e.subs.dispatchError(e.reg, a.node, fmt.Errorf("tps: decode %s: %w", a.path, err))
		return
	}
	e.deliver(value, msg.Src)
}

// traceDeliver measures the transit of a traced event, which carries its
// publisher's clock, and archives its deliver hop. The probe is an
// alloc-free element scan, so an untraced message pays only that.
func (e *Engine) traceDeliver(msg *message.Message) {
	if ev, sentUS, ok := trace.Info(msg); ok {
		e.histTransit.Observe(time.Duration(time.Now().UnixMicro()-sentUS) * time.Microsecond)
		if e.tracer != nil {
			e.tracer.Record(ev, trace.StageDeliver, e.peer.ID(), sentUS, msg.Path)
		}
	}
}

// deliver counts the delivery of an event's value and dispatches it to
// the subscriptions.
func (e *Engine) deliver(value any, src jid.ID) {
	e.stats.delivered.Add(1)
	dstart := time.Now()
	e.subs.dispatch(e.reg, value, src)
	e.histDispatch.Observe(time.Since(dstart))
}
