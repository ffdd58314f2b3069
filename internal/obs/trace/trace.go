// Package trace implements sampled per-event hop tracing for the TPS
// propagation path.
//
// When an engine publishes a sampled event it stamps one small binary
// element (26 bytes: version, event ID, publish wall-clock) onto the
// outgoing message. The element rides the existing copy-on-write
// envelope through every rendezvous hop for free — Dup shares element
// headers, and forwarding peers never strip unknown namespaces. Each
// layer that touches a stamped message records a Hop (publish, forward
// or deliver) into its peer-local bounded Store, together with the
// message's Path stamps at that moment. Traces are assembled across
// peers by fetching each peer's hops for an event ID (admin endpoint
// /trace/{eventID}, tpsctl trace) and merging with Assemble.
//
// Sampling is deterministic and allocation-free: an event is traced
// iff jid.ID.Hash64() falls under a threshold derived from the
// configured rate, so every peer makes the same decision for the same
// event without coordination. With rate 0 (the default) no element is
// ever added and the publish→deliver hot path is unchanged — the probe
// on the receive side is a linear element scan with zero allocations,
// gated by TestHotPathAllocBudget.
package trace

import (
	"encoding/binary"
	"math"

	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
)

// The trace element: namespace "trc", name "Ev". One per traced
// message, stamped once at publish and never rewritten.
const (
	ElemNS   = "trc"
	ElemName = "Ev"

	// MimeType marks the binary trace payload.
	MimeType = "application/x-tps-trace"

	wireVersion = 1
	payloadSize = 1 + jid.WireSize + 8 // version + event ID + sent µs
)

// Hop stages, in propagation order.
const (
	StagePublish = "publish"
	StageForward = "forward"
	StageDeliver = "deliver"
)

// Sampler makes the per-event trace decision for one configured rate.
// The zero value samples nothing.
type Sampler struct {
	threshold uint64
}

// NewSampler returns a sampler tracing approximately the given
// fraction of events (clamped to [0,1]). The decision is a pure
// function of the event ID, so all peers agree on it.
func NewSampler(rate float64) Sampler {
	if rate <= 0 || math.IsNaN(rate) {
		return Sampler{}
	}
	t := rate * math.MaxUint64
	if t >= math.MaxUint64 {
		return Sampler{threshold: math.MaxUint64}
	}
	return Sampler{threshold: uint64(t)}
}

// Enabled reports whether any event can be sampled.
func (s Sampler) Enabled() bool { return s.threshold != 0 }

// Sample reports whether the event should be traced. Zero allocations.
func (s Sampler) Sample(eventID jid.ID) bool {
	if s.threshold == 0 {
		return false
	}
	if s.threshold == math.MaxUint64 {
		return true
	}
	return eventID.Hash64() < s.threshold
}

// Stamp adds the trace element to msg: the event ID this message
// carries and the publisher's wall clock in unix microseconds. Call it
// only for sampled events — it appends an element and therefore
// allocates.
func Stamp(msg *message.Message, eventID jid.ID, sentUS int64) {
	data := make([]byte, 1, payloadSize)
	data[0] = wireVersion
	data = eventID.AppendWire(data)
	data = binary.BigEndian.AppendUint64(data, uint64(sentUS))
	msg.AddElement(message.Element{
		Namespace: ElemNS,
		Name:      ElemName,
		MimeType:  MimeType,
		Data:      data,
	})
}

// Info probes msg for a trace element and decodes it. ok is false for
// unstamped messages, unknown versions and malformed payloads. The
// probe is allocation-free, so every delivery path can afford it even
// when tracing is off locally.
func Info(msg *message.Message) (eventID jid.ID, sentUS int64, ok bool) {
	return Decode(msg.Bytes(ElemNS, ElemName))
}

// Decode decodes the payload of a trace element, as Info does; a hop
// that reads a frame without decoding it (message.View) probes with it.
func Decode(data []byte) (eventID jid.ID, sentUS int64, ok bool) {
	if len(data) != payloadSize || data[0] != wireVersion {
		return jid.Nil, 0, false
	}
	id, err := jid.FromWire(data[1], [16]byte(data[2:1+jid.WireSize]))
	if err != nil || id.IsZero() {
		return jid.Nil, 0, false
	}
	return id, int64(binary.BigEndian.Uint64(data[1+jid.WireSize:])), true
}
