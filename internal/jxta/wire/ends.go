package wire

import (
	"sync"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// Listener consumes messages arriving on a wire input pipe. The
// message is shared, and read-only: the local loopback delivers the
// very message the sender passed to Send, which the sender, the
// propagation under way and the listeners of its other pipes go on
// reading, possibly on other goroutines. A listener may keep it for as
// long as it likes and read everything in it; it must not Add, Replace
// or Remove elements, Stamp or Dup it, or modify a payload in place. All
// four listeners in this tree (engine, srjxta, benchkit, tpsctl) only
// read.
type Listener func(msg *message.Message)

// InputPipe is a peer's receiving end of a propagated pipe.
type InputPipe struct {
	svc *Service
	id  jid.ID

	mu       sync.Mutex
	queue    []*message.Message
	listener Listener
	closed   bool
}

// ID returns the wire pipe ID.
func (in *InputPipe) ID() jid.ID { return in.id }

// SetListener installs (or clears, with nil) the delivery callback.
// Messages queued before a listener existed are flushed to it in order.
func (in *InputPipe) SetListener(l Listener) {
	in.mu.Lock()
	in.listener = l
	var backlog []*message.Message
	if l != nil {
		backlog = in.queue
		in.queue = nil
	}
	in.mu.Unlock()
	for _, m := range backlog {
		l(m)
	}
}

// Close unbinds the input pipe from the wire service.
func (in *InputPipe) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	in.queue = nil
	in.mu.Unlock()

	in.svc.mu.Lock()
	if in.svc.inputs[in.id] == in {
		delete(in.svc.inputs, in.id)
	}
	in.svc.mu.Unlock()
}

func (in *InputPipe) deliver(msg *message.Message) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	l := in.listener
	if l == nil {
		in.queue = append(in.queue, msg)
	}
	in.mu.Unlock()
	if l != nil {
		l(msg)
	}
}

// OutputPipe is a sending end of a propagated pipe.
type OutputPipe struct {
	svc *Service
	id  jid.ID
	// envelope is the wire:ID field every frame of this pipe carries,
	// built once.
	envelope []message.Field
}

// ID returns the wire pipe ID.
func (out *OutputPipe) ID() jid.ID { return out.id }

// Send fans the message out to every peer holding an input end of this
// pipe, including this peer itself. The message is shared with them
// from here on (see Listener): the caller must not change it either. It
// may send it again, on this pipe or another, one Send at a time.
func (out *OutputPipe) Send(msg *message.Message) error {
	return out.svc.send(out, msg)
}
