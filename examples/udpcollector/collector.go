package main

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// queueDepth bounds the raw-datagram queue between the socket reader and
// the ingest workers: deep enough to hold an enumeration burst while the
// workers catch up, bounded so overload sheds attributably instead of
// piling up. Above shedWatermark (three quarters full) admission
// control sheds first-transmission AFR datagrams — the NACK/retransmit
// path can bring every one of them back — and keeps retransmissions until
// the queue is hard-full. Control frames are never queued, so never shed.
const (
	queueDepth    = 4096
	shedWatermark = queueDepth * 3 / 4
)

// collector is a UDP server receiving wire-encoded AFR datagrams from
// switches — the network-facing stand-in for the paper's DPDK RX path.
// A dedicated reader goroutine drains the socket as fast as it can copy
// (minimizing kernel-buffer overflow drops, the analogue of DPDK's RX
// ring), handing datagrams to one ingest worker per core; the controller's
// hash-sharded table lets those workers proceed in parallel.
//
// The reader applies admission control instead of silently discarding on
// queue overflow: control frames (triggers and anything else without AFR
// payload) are decoded inline and always delivered, and data frames shed
// under pressure are first header-peeked so the drop is charged to the
// right sub-window's reliability accounting — the C&R driver then NACKs
// the gap and the retransmit path recovers the shed records.
type collector struct {
	conn      net.PacketConn
	ctrl      *controller.Controller
	wg        sync.WaitGroup // the reader and every ingest worker
	queue     chan []byte
	watermark int

	// Delivery accounting, safe to read while the collector runs.
	// received counts first-transmission datagrams ingested and recovered
	// the retransmitted ones: a delivery barrier compares received against
	// first sends, and folding recoveries into it would make "everything
	// sent has arrived" true before it is. drops counts datagrams that
	// failed to decode (truncated, corrupted — the wire checksum catches
	// in-flight bit flips — or garbage), overruns the data datagrams shed
	// and shedAFRs the records inside them attributed by header peek.
	received, recovered, drops, overruns, shedAFRs atomic.Int64
}

// serve starts serving datagrams from conn into ctrl, which the caller
// keeps using directly (window assembly runs beside ingest), shedding
// recoverable first transmissions once watermark datagrams are queued.
// Close stops it.
func serve(conn net.PacketConn, ctrl *controller.Controller, watermark int) *collector {
	c := &collector{conn: conn, ctrl: ctrl, queue: make(chan []byte, queueDepth), watermark: watermark}
	workers := runtime.GOMAXPROCS(0)
	c.wg.Add(1 + workers)
	go c.readLoop()
	for range workers {
		go c.ingestLoop()
	}
	return c
}

// readLoop drains the socket, triaging each datagram: control frames are
// decoded and delivered inline (they are tiny, rare, and must never be
// shed — losing a trigger blinds the gap detector for a whole
// sub-window), data frames are copied onto the queue for the workers or
// shed per the admission policy. The triage itself uses the
// allocation-free PeekFlag; the full PeekDatagram runs only on the shed
// path.
func (c *collector) readLoop() {
	defer c.wg.Done()
	defer close(c.queue)
	buf := make([]byte, 64*1024)
	var ctl packet.Packet // reused decode target for inline control frames
	for {
		n, _, err := c.conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		d := buf[:n]
		flag, peeked := wire.PeekFlag(d)
		if peeked && flag != packet.OWAFR && flag != packet.OWRetransmit {
			// Control frame: full CRC-checked decode, delivered inline.
			// Receive copies what it keeps.
			if err := wire.DecodeInto(&ctl, d); err == nil {
				c.ctrl.Receive(&ctl)
				c.received.Add(1)
			} else {
				c.drops.Add(1)
			}
			continue
		}
		if len(c.queue) >= c.watermark && (!peeked || flag == packet.OWAFR) {
			// Above the watermark: shed recoverable first transmissions
			// (and unpeekable garbage) to keep room for retransmissions.
			c.shed(d)
			continue
		}
		select {
		case c.queue <- bytes.Clone(d): // the copy belongs to an ingest worker
		default:
			// Hard-full: shed whatever this is, but attribute the loss.
			// Blocking here would push the loss into the kernel buffer
			// where it is invisible.
			c.shed(d)
		}
	}
}

// shed records one data frame the admission policy dropped: the overrun
// counter always, and — when the header peeks cleanly — each carried AFR
// charged to its sub-window's reliability accounting, so the sub-window
// finalizes with Shed set and the NACK path knows to re-query the gap.
// Peeking is advisory (no CRC): a corrupt header at worst misattributes a
// drop, it cannot corrupt controller state.
func (c *collector) shed(d []byte) {
	c.overruns.Add(1)
	if pk, peeked := wire.PeekDatagram(d); peeked {
		for sw, n := range pk.AFRSubWindows {
			c.shedAFRs.Add(int64(n))
			c.ctrl.NoteShed(sw, n)
		}
	}
}

// ingestLoop decodes queued datagrams and feeds the controller. One
// long-lived packet per worker: DecodeInto keeps its AFR slice capacity,
// and Receive copies everything it keeps.
func (c *collector) ingestLoop() {
	defer c.wg.Done()
	var p packet.Packet
	for d := range c.queue {
		if err := wire.DecodeInto(&p, d); err != nil {
			c.drops.Add(1)
			continue
		}
		c.ctrl.Receive(&p)
		if p.OW.Flag == packet.OWRetransmit {
			c.recovered.Add(1)
		} else {
			c.received.Add(1)
		}
	}
}

// Close stops the collector gracefully: the reader exits, the queue
// drains and every in-flight ingest worker finishes before Close returns,
// so records already read off the socket are never abandoned mid-decode
// and nothing reaches the controller afterwards.
func (c *collector) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// instrument exports the collector's counters on reg as scrape-time func
// metrics, reading the same atomics instead of double-counting through
// parallel obs counters.
func (c *collector) instrument(reg *obs.Registry) {
	reg.CounterFunc("omniwindow_collector_received_total", "first-transmission datagrams decoded and ingested", c.received.Load)
	reg.CounterFunc("omniwindow_collector_recovered_total", "retransmitted datagrams ingested via the NACK path", c.recovered.Load)
	reg.CounterFunc("omniwindow_collector_decode_failures_total", "datagrams that failed to decode", c.drops.Load)
	reg.CounterFunc("omniwindow_collector_overruns_total", "data datagrams shed by admission control", c.overruns.Load)
	reg.CounterFunc("omniwindow_collector_shed_afrs_total", "AFR records inside shed datagrams attributed by header peek", c.shedAFRs.Load)
	reg.GaugeFunc("omniwindow_collector_queue_depth", "raw datagrams waiting between the socket reader and ingest workers", func() int64 { return int64(len(c.queue)) })
	reg.GaugeFunc("omniwindow_collector_table_size", "flows resident in the controller key-value table", func() int64 { return int64(c.ctrl.TableSize()) })
}

// sendDatagram wire-encodes p and sends it to addr over conn — the
// switch-side transmit helper.
func sendDatagram(conn net.PacketConn, addr net.Addr, p *packet.Packet) error {
	enc, err := wire.Encode(nil, p)
	if err != nil {
		return err
	}
	_, err = conn.WriteTo(enc, addr)
	return err
}
