package main

import (
	"net"
	"sync"
	"sync/atomic"

	"omniwindow/internal/faults"
)

// lossyConn wraps a net.PacketConn, pushing every outbound datagram
// through a faults.Injector before it reaches the wire — the lossy network
// between a switch's uplink and the collector. Reads are untouched (faults
// are injected once, on the send side, so the schedule stays deterministic
// regardless of receiver goroutine timing).
//
// Reordered datagrams are parked inside the injector and released behind
// later sends; flush forces them out before a delivery barrier. Because a
// parked datagram loses its destination, a lossyConn tracks the first
// WriteTo address and sends every parked datagram there — the telemetry
// uplink always has exactly one collector.
type lossyConn struct {
	net.PacketConn
	in *faults.Injector
	// filter, when non-nil, selects the datagrams subject to faults (by
	// raw bytes, e.g. on the wire flag octet); the rest pass through.
	filter func([]byte) bool

	mu  sync.Mutex
	dst net.Addr
	// delivered counts the datagrams actually put on the wire (fault
	// survivors plus duplicates plus filtered passthroughs) — the count a
	// delivery barrier compares the collector's counters against.
	delivered atomic.Int64
}

// WriteTo sends b through the fault schedule. It reports b fully written
// even when the schedule swallowed it: the sender must not learn of the
// loss — detecting it is the reliability protocol's job.
func (c *lossyConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if c.filter != nil && !c.filter(b) {
		n, err := c.PacketConn.WriteTo(b, addr)
		if err == nil {
			c.delivered.Add(1)
		}
		return n, err
	}
	c.mu.Lock()
	if c.dst == nil {
		c.dst = addr
	}
	c.mu.Unlock()
	for _, d := range c.in.Datagrams(b) {
		if len(d) == 0 {
			continue // truncated to nothing: indistinguishable from a drop
		}
		if _, err := c.PacketConn.WriteTo(d, addr); err != nil {
			return 0, err
		}
		c.delivered.Add(1)
	}
	return len(b), nil
}

// flush releases every datagram parked for reordering. Call it before a
// delivery barrier.
func (c *lossyConn) flush() error {
	c.mu.Lock()
	dst := c.dst
	c.mu.Unlock()
	for _, d := range c.in.Flush() {
		if len(d) == 0 || dst == nil {
			continue
		}
		if _, err := c.PacketConn.WriteTo(d, dst); err != nil {
			return err
		}
		c.delivered.Add(1)
	}
	return nil
}
