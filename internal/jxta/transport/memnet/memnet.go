// Package memnet adapts a netsim node to the endpoint Transport
// interface, giving peers a simulated wide-area network with the "mem"
// address scheme ("mem://<node-name>").
package memnet

import (
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/netsim"
)

// Scheme is the address scheme served by this transport.
const Scheme = "mem"

// Transport is an endpoint transport backed by a netsim node.
type Transport struct {
	node *netsim.Node
	addr endpoint.Address
}

var _ endpoint.Transport = (*Transport)(nil)

// New wraps the netsim node. The node must not have a handler installed;
// the transport owns it.
func New(node *netsim.Node) *Transport {
	return &Transport{node: node, addr: endpoint.MakeAddress(Scheme, node.Name())}
}

// Scheme implements endpoint.Transport.
func (t *Transport) Scheme() string { return Scheme }

// LocalAddress implements endpoint.Transport.
func (t *Transport) LocalAddress() endpoint.Address { return t.addr }

// Send implements endpoint.Transport. The netsim node copies the frame
// before scheduling delivery, satisfying the no-retain contract of
// endpoint.Transport (the endpoint recycles frame buffers).
func (t *Transport) Send(to endpoint.Address, frame []byte) error {
	return t.node.Send(to.Host(), frame)
}

// SetReceiver implements endpoint.Transport. The frame is the copy the
// sending node made, which nothing writes again: recv's to keep.
func (t *Transport) SetReceiver(recv func(frame []byte)) {
	t.node.SetHandler(func(_ string, data []byte) { recv(data) })
}

// Close implements endpoint.Transport.
func (t *Transport) Close() error {
	t.node.Close()
	return nil
}
