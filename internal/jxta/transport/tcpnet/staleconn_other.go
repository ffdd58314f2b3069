//go:build !unix

package tcpnet

import "net"

// newProbe's probe is a no-op where raw-descriptor peeking is
// unavailable; the readLoop's EOF handling still drops stale
// connections, just not synchronously with Send.
func newProbe(net.Conn) func() bool { return func() bool { return false } }
