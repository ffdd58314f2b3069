package tcpnet

import "net"

// RbufSize lets the external tests put frames on either side of a read
// chunk's end.
const RbufSize = rbufSize

// ReadConn reads conn as an accepted connection is read and returns when
// its reader has exited.
func (t *Transport) ReadConn(conn net.Conn) {
	t.wg.Add(1)
	t.readLoop(conn, func() { _ = conn.Close() })
}

// NewProbe is the liveness probe a flusher builds for its connection.
var NewProbe = newProbe
