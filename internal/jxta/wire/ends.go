package wire

import (
	"sync"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// Listener consumes messages arriving on a wire input pipe. The
// delivered message is the listener's to keep, but its element payloads
// may be shared copy-on-write with copies still in flight (the local
// loopback shares bytes with the copy being propagated into the mesh):
// listeners may Add/Replace/Remove elements on their copy, but must
// never modify element payload bytes in place.
type Listener func(msg *message.Message)

// InputPipe is a peer's receiving end of a propagated pipe.
type InputPipe struct {
	svc  *Service
	id   jid.ID
	name string

	mu       sync.Mutex
	queue    []*message.Message
	listener Listener
	closed   bool
}

// ID returns the wire pipe ID.
func (in *InputPipe) ID() jid.ID { return in.id }

// Name returns the pipe's advertised name.
func (in *InputPipe) Name() string { return in.name }

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
	svc  *Service
	id   jid.ID
	name string
}

// ID returns the wire pipe ID.
func (out *OutputPipe) ID() jid.ID { return out.id }

// Name returns the pipe's advertised name.
func (out *OutputPipe) Name() string { return out.name }

// Send fans the message out to every peer holding an input end of this
// pipe, including this peer itself.
func (out *OutputPipe) Send(msg *message.Message) error {
	return out.svc.send(out.id, msg)
}
