package adv

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
)

// Factory errors.
var (
	// ErrUnknownType is returned by Unmarshal for documents whose root
	// element names no registered advertisement type.
	ErrUnknownType = errors.New("adv: unknown advertisement type")
	// ErrNotXML is returned for byte streams that do not parse as XML.
	ErrNotXML = errors.New("adv: malformed XML")
)

// Marshal renders the advertisement as its canonical XML document. The
// document is self-describing: Unmarshal recovers the concrete type from
// the root element.
func Marshal(a Advertisement) ([]byte, error) {
	out, err := xml.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("adv: marshal %s: %w", a.AdvType(), err)
	}
	return out, nil
}

// Unmarshal parses an XML document produced by Marshal, sniffing the root
// element to choose the concrete advertisement type — the Go analogue of
// JXTA's AdvertisementFactory.newAdvertisement(type).
func Unmarshal(doc []byte) (Advertisement, error) {
	root, err := rootElement(doc)
	if err != nil {
		return nil, err
	}
	var a Advertisement
	switch root {
	case "PeerAdvertisement":
		a = &PeerAdv{}
	case "PeerGroupAdvertisement":
		a = &PeerGroupAdv{}
	case "PipeAdvertisement":
		a = &PipeAdv{}
	case "ServiceAdvertisement":
		a = &ServiceAdv{}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, root)
	}
	if err := xml.Unmarshal(doc, a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotXML, err)
	}
	return a, nil
}

// rootElement returns the name of the first start element.
func rootElement(doc []byte) (string, error) {
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrNotXML, err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return start.Name.Local, nil
		}
	}
}
