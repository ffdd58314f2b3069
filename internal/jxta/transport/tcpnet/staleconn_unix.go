//go:build unix

package tcpnet

import (
	"net"
	"syscall"
)

// newProbe returns c's liveness probe: it reports whether the remote end
// of the cached connection has already closed or reset it, using a
// non-blocking MSG_PEEK on the raw descriptor. A write to such a
// connection would "succeed" into the kernel buffer and the frame would
// be silently lost — the failure mode of sending to a peer that
// restarted. The peek never consumes data (the concurrent readLoop still
// sees every frame) and never blocks. The raw connection and the peek
// closure are made here, once, so that a flush probes without
// allocating.
func newProbe(c net.Conn) func() bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return func() bool { return false }
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return func() bool { return false }
	}
	var dead bool
	peek := func(fd uintptr) {
		var buf [1]byte
		for {
			n, _, err := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
				// Alive: nothing to read right now.
			case err != nil:
				dead = true // ECONNRESET and friends
			case n == 0:
				dead = true // orderly shutdown: FIN already received
			}
			return
		}
	}
	return func() bool {
		dead = false
		_ = raw.Control(peek)
		return dead
	}
}
