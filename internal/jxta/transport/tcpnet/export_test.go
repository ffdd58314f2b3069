package tcpnet

// RbufSize lets the external tests put frames on either side of the
// read buffer's edge.
const RbufSize = rbufSize

// NewProbe is the liveness probe a flusher builds for its connection.
var NewProbe = newProbe
