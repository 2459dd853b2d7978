package main

import (
	"fmt"
	"net"
	"testing"
	"time"

	"omniwindow/internal/faults"
)

// payload is one datagram's worth of bytes for the fake socket.
var payload = []byte("datagram-payload")

// fakeConn records writes; it implements just enough of net.PacketConn.
type fakeConn struct {
	writes [][]byte
}

type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

func (c *fakeConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}
func (c *fakeConn) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, nil }
func (c *fakeConn) Close() error                           { return nil }
func (c *fakeConn) LocalAddr() net.Addr                    { return fakeAddr("local") }
func (c *fakeConn) SetDeadline(time.Time) error            { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error        { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error       { return nil }

func TestPacketConnDropHidesLoss(t *testing.T) {
	fc := &fakeConn{}
	pc := &lossyConn{PacketConn: fc, in: faults.New(faults.Config{Seed: 1, Drop: 1})}
	n, err := pc.WriteTo(payload, fakeAddr("ctrl"))
	if err != nil || n != len(payload) {
		t.Fatalf("sender learned of the drop: n=%d err=%v", n, err)
	}
	if len(fc.writes) != 0 || pc.delivered.Load() != 0 {
		t.Fatal("dropped datagram reached the wire")
	}
}

func TestPacketConnFilterPassthrough(t *testing.T) {
	fc := &fakeConn{}
	// Fault only datagrams starting with 'F'; drop them all.
	pc := &lossyConn{PacketConn: fc, in: faults.New(faults.Config{Seed: 1, Drop: 1}), filter: func(b []byte) bool {
		return len(b) > 0 && b[0] == 'F'
	}}
	if _, err := pc.WriteTo([]byte("Fault-me"), fakeAddr("ctrl")); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo([]byte("keep-me"), fakeAddr("ctrl")); err != nil {
		t.Fatal(err)
	}
	if len(fc.writes) != 1 || string(fc.writes[0]) != "keep-me" {
		t.Fatalf("filter misrouted: %q", fc.writes)
	}
	if pc.delivered.Load() != 1 {
		t.Fatalf("Delivered() = %d, want 1", pc.delivered.Load())
	}
}

func TestPacketConnFlushReleasesParked(t *testing.T) {
	fc := &fakeConn{}
	pc := &lossyConn{PacketConn: fc, in: faults.New(faults.Config{Seed: 6, Reorder: 1, ReorderDepth: 100})}
	const sent = 10
	for i := 0; i < sent; i++ {
		if _, err := pc.WriteTo([]byte(fmt.Sprintf("datagram-%04d", i)), fakeAddr("ctrl")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.flush(); err != nil {
		t.Fatal(err)
	}
	if len(fc.writes) != sent || pc.delivered.Load() != sent {
		t.Fatalf("flush delivered %d of %d (Delivered=%d)", len(fc.writes), sent, pc.delivered.Load())
	}
}
