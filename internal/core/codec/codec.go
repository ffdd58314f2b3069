// Package codec serialises TPS events for the wire.
//
// TPS assumes the peers a priori share a common type model (the paper's
// §3.2/§6 discussion: Java serialization there, Go types here). Three
// codecs ship: gob — the Go-native analogue of Java serialization, used
// by default — and JSON and XML, the "loose" representations §6
// sketches as the road toward cross-model interoperability.
//
// No codec puts the event's type in the blob in a form the receiver
// acts on: the TPS envelope names the type (tps:Path), the receiver
// resolves it in its registry and hands Decode the Go type. A gob blob
// carries gob's type descriptors all the same, so it decodes standalone
// with the standard library on any peer; gob.go describes how Gob
// avoids paying for those descriptors on every event.
package codec

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
)

// Errors.
var (
	ErrUnknownCodec = errors.New("codec: unknown codec name")
	ErrNilEvent     = errors.New("codec: nil event")
)

// Codec turns events into bytes and back.
type Codec interface {
	// Name identifies the codec on the wire.
	Name() string
	// Encode serialises an event value.
	Encode(event any) ([]byte, error)
	// Decode deserialises into a value of the given type, which is
	// required. The returned value's dynamic type is typ (not a pointer
	// to it).
	Decode(data []byte, typ reflect.Type) (any, error)
}

// JSON is the alternative, cross-language-friendly codec.
type JSON struct{}

// Name implements Codec.
func (JSON) Name() string { return "json" }

// Encode implements Codec.
func (JSON) Encode(event any) ([]byte, error) {
	if event == nil {
		return nil, ErrNilEvent
	}
	out, err := json.Marshal(event)
	if err != nil {
		return nil, fmt.Errorf("codec: json encode %T: %w", event, err)
	}
	return out, nil
}

// Decode implements Codec.
func (JSON) Decode(data []byte, typ reflect.Type) (any, error) {
	if typ == nil {
		return nil, errors.New("codec: json decode requires a type")
	}
	ptr := reflect.New(typ)
	if err := json.Unmarshal(data, ptr.Interface()); err != nil {
		return nil, fmt.Errorf("codec: json decode into %v: %w", typ, err)
	}
	return ptr.Elem().Interface(), nil
}

// XML represents events as XML documents — the "loose" way of achieving
// common type knowledge at run time that the paper's §6 leaves as
// ongoing investigation: peers that do not share the Go type model can
// still inspect the element structure. Like JSON, the stream is not
// self-describing at the Go level, so Decode needs the expected type.
type XML struct{}

// Name implements Codec.
func (XML) Name() string { return "xml" }

// Encode implements Codec.
func (XML) Encode(event any) ([]byte, error) {
	if event == nil {
		return nil, ErrNilEvent
	}
	out, err := xml.Marshal(event)
	if err != nil {
		return nil, fmt.Errorf("codec: xml encode %T: %w", event, err)
	}
	return out, nil
}

// Decode implements Codec.
func (XML) Decode(data []byte, typ reflect.Type) (any, error) {
	if typ == nil {
		return nil, errors.New("codec: xml decode requires a type")
	}
	ptr := reflect.New(typ)
	if err := xml.Unmarshal(data, ptr.Interface()); err != nil {
		return nil, fmt.Errorf("codec: xml decode into %v: %w", typ, err)
	}
	return ptr.Elem().Interface(), nil
}

// ByName returns the codec registered under the given wire name.
func ByName(name string) (Codec, error) {
	switch name {
	case "gob":
		return Gob{}, nil
	case "json":
		return JSON{}, nil
	case "xml":
		return XML{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
	}
}

// Interface compliance.
var (
	_ Codec = Gob{}
	_ Codec = JSON{}
	_ Codec = XML{}
)
