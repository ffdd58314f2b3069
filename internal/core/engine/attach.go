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
	"github.com/tps-p2p/tps/internal/jxta/rendezvous/recovery"
	"github.com/tps-p2p/tps/internal/obs/trace"
)

// attach.go is the Connections block: it turns a type into a live
// attachment — the one reader of its group on the peer's rendezvous
// service (the paper's TPSPipeReader over TPSMyInputPipe), which hands
// it the group's events, their log coordinates and the range signals
// that answer its replay requests, and the group's lease, which publish
// propagates into (TPSMyOutputPipe).

// EventService is the destination service an event frame names
// (rdv:DSvc), beside its group. Nobody dispatches on it — a group has
// one reader — but it stays the name JXTA's wire service registered
// under (WireService.WireName): every frame already stored in an event
// log names it.
const EventService = "jxta.service.wire"

// TPS message element names, namespace "tps". An event is its message:
// the message ID is the event's, and its one element is the gob blob —
// the attachment's group fixes the type, and every peer speaks gob (the
// common type model of §3.2). A frame that still carries the
// tps:EventID, tps:Path and tps:Codec elements of earlier versions, or
// the wire:ID element of the pipe that used to carry it, decodes all
// the same; nothing reads them.
const (
	elemNS   = "tps"
	elemData = "Data"
)

// attachment is one type's live binding to its group, and the group's
// reader (rendezvous.Reader).
type attachment struct {
	e    *Engine
	path string
	node *typereg.Node // the type every event in the group is decoded into
	// param is the group's ID as a string: the group its frames name,
	// its lease and the log topic of its events.
	param string

	// recMu guards rec: the attachment's replay cursors, the rendezvous
	// owed a request and the windows asked for.
	recMu sync.Mutex
	rec   *recovery.Subscriber
}

// attach makes a new attachment the reader of the group of the
// registered type node, leases the group and registers the attachment,
// unless the engine holds one for the type already. The caller holds
// e.attachMu.
func (e *Engine) attach(node *typereg.Node) (*attachment, error) {
	path := node.Path()
	if a, err := e.attached(path); a != nil || err != nil {
		return a, err
	}
	a := &attachment{e: e, path: path, node: node, param: TypeGroup(path).String(),
		rec: recovery.NewSubscriber(e.rdv.Config().ActiveStandby)}
	if err := e.rdv.Read(a.param, a); err != nil {
		return nil, fmt.Errorf("tps: attach %s: %w", path, err)
	}
	e.rdv.Join(a.param)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.detach(a)
		return nil, ErrClosed
	}
	e.attachments[path] = a
	e.cond.Broadcast()
	e.mu.Unlock()
	// The engine's lease listener routes the group's grants to the
	// attachment from here on. Every lease the group holds already is
	// owed a request too, taken after: a grant in between is in one or
	// both. The replay loop can see the attachment now.
	a.epoch(e.rdv.ConnectedRendezvous(a.param)...)
	e.kickReplay()
	return a, nil
}

// newEventMessage assembles the one-element TPS event, whose ID is the
// message's (Publish numbers it in its group's stream with
// rendezvous.Service.Number): the event's gob blob is written into the
// message's payload room — a blob too large for it moves into one of
// its own.
func newEventMessage(src jid.ID, event any) (*message.Message, error) {
	msg := message.New(src)
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
// decodes nothing. Otherwise the delivery is a received event's: it is
// counted, and a traced event's deliver hop and transit are recorded.
// The frame of the event never reaches this engine again: Propagate
// marks its message ID in the peer's hop filter before the first frame
// leaves, so a replay of it from a rendezvous' log is dropped there, and
// the mesh never sends a publisher its own event, which is on the
// frame's path. Propagate takes msg and stamps it, so msg is read here
// first. A peer nobody can be reached from has still delivered locally:
// that is not an error.
func (e *Engine) publish(a *attachment, event any, msg *message.Message) error {
	e.traceDeliver(msg.Bytes(trace.ElemNS, trace.ElemName), func() []jid.ID { return msg.Path })
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

// detach removes the attachment as its group's reader and ends its
// lease.
func (e *Engine) detach(a *attachment) {
	_ = e.rdv.Read(a.param, nil)
	e.rdv.Leave(a.param)
}

// Deliver implements rendezvous.Reader: it decodes and dispatches one
// event off the network, read from the view of its frame — the gob blob
// of tps:Data, the publisher, and for a traced event its trace element
// and path. Events this peer publishes never come through here: publish
// delivers them locally by value.
//
// The engine keeps nothing of the view: the decoded value is cut from a
// block of its own (codec.Gob.Decode), the publisher is an ID by value,
// and a traced event's path is copied out of the frame.
//
// Exactly-once: a duplicate never reaches the engine. The rendezvous
// service hands a group's reader a frame only past its hop filter
// (handleProp), which has just dropped the message if its ID — the
// event's — was known: an event echoed through several mesh paths,
// served over two rendezvous, or replayed after its live copy (a log
// keeps the message ID) is delivered on first arrival only. So the
// payload of any given event is gob-decoded at most once on this peer,
// and the decoded value is shared across every matching subscription
// and interface callback (dispatch fans the same value out).
func (a *attachment) Deliver(v message.View, _ endpoint.Address) {
	e := a.e
	e.traceDeliver(v.Bytes(trace.ElemNS, trace.ElemName), func() []jid.ID { return v.AppendPath(nil) })
	value, err := (codec.Gob{}).Decode(v.Bytes(elemNS, elemData), a.node.Type())
	if err != nil {
		e.stats.decodeErrors.Add(1)
		e.subs.dispatchError(e.reg, a.node, fmt.Errorf("tps: decode %s: %w", a.path, err))
		return
	}
	e.deliver(value, v.Src())
}

// traceDeliver measures the transit of an event whose trace element is
// trc — a traced event carries its publisher's clock — and archives its
// deliver hop, with the path the event crossed. path is called for a
// traced event on a peer that keeps traces alone. The probe is an
// alloc-free decode of an element's payload, so an untraced event pays
// only its lookup.
func (e *Engine) traceDeliver(trc []byte, path func() []jid.ID) {
	if ev, sentUS, ok := trace.Decode(trc); ok {
		e.histTransit.Observe(time.Duration(time.Now().UnixMicro()-sentUS) * time.Microsecond)
		if e.tracer != nil {
			e.tracer.Record(ev, trace.StageDeliver, e.peer.ID(), sentUS, path())
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
