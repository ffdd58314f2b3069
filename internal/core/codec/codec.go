// Package codec serialises TPS events for the wire.
//
// TPS assumes the peers a priori share a common type model (the paper's
// §3.2/§6 discussion: Java serialization there, Go types here), and one
// serialisation with it: gob, the Go-native analogue of Java
// serialization. Gob is the one codec.
//
// A blob does not carry the event's type in a form the receiver acts on:
// the group an event arrives in names its type, the receiver resolved it
// in its registry when it attached, and it hands Decode the Go type. A
// gob blob carries gob's type descriptors all the same, so it decodes
// standalone with the standard library on any peer; gob.go describes how
// Gob avoids paying for those descriptors on every event.
//
// Gob encodes and decodes a flat event type — a struct of bools,
// integers, floats, strings and byte slices — with a plan compiled from
// a type descriptor (plan.go). Encoding, the plan writes the value
// message gob's encoder would write, into the caller's buffer
// (Gob.AppendEncode). Decoding, a plan compiled from the sender's
// descriptor reads the value message straight from the blob and copies
// out what it keeps; it declines any value message it does not
// reproduce exactly (another type id, a field past the last, a length
// past the message, a value a narrower field overflows, bytes after the
// end), and encoding/gob decodes that one. gob stays the reference, and
// the wire does not change.
package codec

import "errors"

// ErrNilEvent is returned by Encode for a nil event.
var ErrNilEvent = errors.New("codec: nil event")
