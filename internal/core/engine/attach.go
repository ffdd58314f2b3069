package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/typereg"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/peer"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// attach.go is the Connections block: it turns a type into a live
// attachment — its joined peer group, a wire input pipe with its reader
// (the paper's TPSPipeReader / TPSMyInputPipe) and a wire output pipe
// (TPSMyOutputPipe).

// TPS message element names, namespace "tps". An event is its ID and its
// gob blob: the attachment's group fixes the type, and every peer speaks
// gob (the common type model of §3.2). A frame that still carries the
// tps:Path and tps:Codec elements of earlier versions decodes all the
// same; nothing reads them.
const (
	elemNS      = "tps"
	elemEventID = "EventID"
	elemData    = "Data"
)

// attachment is one type's live binding to its group.
type attachment struct {
	path    string
	node    *typereg.Node // the type every event in the group is decoded into
	groupID jid.ID
	group   *peer.Group
	in      *wire.InputPipe
	out     *wire.OutputPipe
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

// attach joins the group of the registered type node, opens the wire
// pipes and registers the attachment, unless the engine holds one for
// the type already. The caller holds e.attachMu.
func (e *Engine) attach(node *typereg.Node) (*attachment, error) {
	path := node.Path()
	if a, err := e.attached(path); a != nil || err != nil {
		return a, err
	}
	groupID, pipeID := TypeGroup(path)
	g, err := e.peer.JoinGroup(groupID, PSPrefix+path)
	if errors.Is(err, peer.ErrAlreadyIn) {
		return nil, fmt.Errorf("tps: %s: another engine of this peer is attached to its group", path)
	}
	if err != nil {
		return nil, fmt.Errorf("tps: join group for %s: %w", path, err)
	}
	in, err := g.Wire.CreateInputPipe(pipeID)
	if err != nil {
		e.peer.LeaveGroup(groupID)
		return nil, fmt.Errorf("tps: input pipe for %s: %w", path, err)
	}
	out, err := g.Wire.CreateOutputPipe(pipeID)
	if err != nil {
		e.peer.LeaveGroup(groupID)
		return nil, fmt.Errorf("tps: output pipe for %s: %w", path, err)
	}
	a := &attachment{
		path:    path,
		node:    node,
		groupID: groupID,
		group:   g,
		in:      in,
		out:     out,
	}
	in.SetListener(func(m *message.Message) { e.onWireMessage(a, m) })
	// Replay gaps surface as exceptions on this attachment's path.
	a.gapTok = e.rdv.AddGapListener(e.onGapSignal(a))
	// Every lease for the group granted from here on is owed a replay
	// request, and so is every lease the group already holds: taken
	// after the listener is in place, so a grant in between is in one or
	// both. A new lease can make the attachment ready, too.
	a.leaseTok = e.rdv.AddLeaseListener(func(id jid.ID, group string) {
		if group != g.Param() && group != "" {
			return
		}
		a.oweReplay(id)
		e.kickReplay()
		e.broadcast()
	})
	a.oweReplay(e.rdv.ConnectedRendezvous(g.Param())...)

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
// room a new message comes with. The event ID crosses the wire in binary
// form (message.AddID), not as a parsed-back URN string.
func newEventMessage(e *Engine, eventID jid.ID, payload []byte) *message.Message {
	msg := message.New(e.peer.ID())
	msg.AddID(elemNS, elemEventID, eventID)
	msg.AddBytes(elemNS, elemData, payload)
	return msg
}

// publish sends one pre-built event message on this attachment's output
// pipe. Its elements are shared with the local subscribers; the wire
// service only reads it.
func (a *attachment) publish(msg *message.Message) error {
	return a.out.Send(msg)
}

// ready reports whether the attachment can reach beyond this process:
// its group holds a rendezvous lease, or the peer was never seeded
// (loopback only).
func (e *Engine) ready(a *attachment) bool {
	return len(e.rdv.Config().Seeds) == 0 || len(e.rdv.ConnectedRendezvous(a.group.Param())) > 0
}

// detach tears the attachment down and leaves its group.
func (e *Engine) detach(a *attachment) {
	a.in.Close()
	e.rdv.RemoveGapListener(a.gapTok)
	e.rdv.RemoveLeaseListener(a.leaseTok)
	e.peer.LeaveGroup(a.groupID)
}

// onWireMessage is the pipe reader: it deduplicates, decodes and
// dispatches one incoming event.
//
// Decode-once: the payload of any given event is gob-decoded at most
// once on this peer. Deduplication runs before the decode, so an event
// echoed through several mesh paths or replayed decodes on first
// arrival only; the decoded value is then shared across every matching
// subscription and interface callback (dispatch fans the same value
// out). Events this peer itself published skip the decode entirely —
// the publisher still holds the original value (publishedEvents) and
// loopback dispatches it as-is.
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
	// Traced events carry the publisher's clock: measure network
	// transit and archive the deliver hop. The probe is an alloc-free
	// element scan, so untraced messages pay only that.
	if ev, sentUS, ok := trace.Info(msg); ok {
		e.histTransit.Observe(time.Duration(time.Now().UnixMicro()-sentUS) * time.Microsecond)
		if e.tracer != nil {
			e.tracer.Record(ev, trace.StageDeliver, e.peer.ID(), sentUS, msg.Path)
		}
	}
	value, ok := e.self.get(eventID)
	if !ok {
		if value, err = (codec.Gob{}).Decode(msg.Bytes(elemNS, elemData), a.node.Type()); err != nil {
			e.stats.decodeErrors.Add(1)
			e.subs.dispatchError(fmt.Errorf("tps: decode %s: %w", a.path, err))
			return
		}
	}
	e.stats.delivered.Add(1)
	dstart := time.Now()
	e.subs.dispatch(e.reg, a.node, value, msg.Src)
	e.histDispatch.Observe(time.Since(dstart))
}
