//go:build !tankdebug

package bufpool

// Release builds: the debug hooks compile to empty, inlinable bodies —
// Get/Put pay nothing for the instrumentation that exists under the
// tankdebug tag (see debug_tank.go).

// Debug reports a tankdebug build. Tests that pin allocation counts skip
// when it is set: the debug hooks allocate (stack capture, poison
// bookkeeping) by design.
const Debug = false

func debugGet(b []byte) {}

func debugPut(b []byte) {}
