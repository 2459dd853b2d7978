package controller

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/pool"
	"omniwindow/internal/wire"
)

// CollectorConfig tunes the UDP collector's worker pool and admission
// control. The zero value reproduces the defaults.
type CollectorConfig struct {
	// Workers is the number of concurrent ingest workers (<= 0 means one
	// per core).
	Workers int
	// MaxQueueDepth bounds the raw-datagram queue between the socket
	// reader and the ingest workers (<= 0 means 4096).
	MaxQueueDepth int
	// ShedWatermark is the queue-fill fraction above which admission
	// control sheds recoverable datagrams first: first-transmission AFR
	// datagrams are dropped — the reliability protocol's NACK/retransmit
	// path can bring every one of them back — while retransmissions
	// (already-recovered data; shedding them risks exhausting the retry
	// budget) are kept until the queue is hard-full. Control frames are
	// never queued, so they are never shed. <= 0 means 0.75; values >= 1
	// only shed when hard-full.
	ShedWatermark float64
	// OnClose, when set, runs after the reader has exited and every
	// ingest worker has drained, before Close returns — the hook for
	// flushing a WAL segment or final accounting exactly once, after the
	// last record is ingested.
	OnClose func()
}

// Collector is a UDP server receiving wire-encoded AFR datagrams from
// switches — the network-facing stand-in for the paper's DPDK RX path.
// A dedicated reader goroutine drains the socket as fast as it can copy
// (minimizing kernel-buffer overflow drops, the analogue of DPDK's RX
// ring), handing datagrams to a pool of ingest workers that decode and
// feed the controller concurrently; its hash-sharded table lets
// those workers proceed in parallel.
//
// The reader applies admission control instead of silently discarding on
// queue overflow: control frames (triggers and anything else without AFR
// payload) are decoded inline and always delivered, and data frames shed
// under pressure are first header-peeked so the drop is charged to the
// right sub-window's reliability accounting — the C&R driver then NACKs
// the gap and the retransmit path recovers the shed records.
type Collector struct {
	conn      net.PacketConn
	ctrl      *Controller
	wg        sync.WaitGroup // the reader and every ingest worker
	queue     chan []byte
	watermark int
	onClose   func()
	drops     atomic.Int64
	recvd     atomic.Int64
	recov     atomic.Int64
	overrun   atomic.Int64
	shedAFRs  atomic.Int64
}

// NewCollector starts serving datagrams from conn into ctrl, which the
// caller keeps using directly (window assembly runs beside ingest). The
// zero cfg gives one ingest worker per core and the default admission
// control. Close the conn (or call Close) to stop.
func NewCollector(conn net.PacketConn, ctrl *Controller, cfg CollectorConfig) *Collector {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 4096
	}
	if cfg.ShedWatermark <= 0 {
		cfg.ShedWatermark = 0.75
	}
	wm := min(int(cfg.ShedWatermark*float64(cfg.MaxQueueDepth)), cfg.MaxQueueDepth)
	c := &Collector{
		conn:      conn,
		ctrl:      ctrl,
		queue:     make(chan []byte, cfg.MaxQueueDepth),
		watermark: wm,
		onClose:   cfg.OnClose,
	}
	c.wg.Add(1 + cfg.Workers)
	go c.readLoop()
	for i := 0; i < cfg.Workers; i++ {
		go c.ingestLoop()
	}
	return c
}

// Addr returns the listening address.
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// readLoop drains the socket, triaging each datagram: control frames are
// decoded and delivered inline (they are tiny, rare, and must never be
// shed — losing a trigger blinds the gap detector for a whole
// sub-window), data frames are queued for the workers or shed per the
// admission policy.
//
// Datagram copies come from internal/pool and are owned by exactly one
// stage at a time: the reader until the queue send, then the ingest worker
// that decodes and releases them. Shed or inline-handled datagrams are
// released here. The triage itself uses the allocation-free PeekFlag; the
// full (map-building) PeekDatagram runs only on the shed path.
func (c *Collector) readLoop() {
	defer c.wg.Done()
	defer close(c.queue)
	scratch := make([]byte, 64*1024)
	var ctl packet.Packet // reused decode target for inline control frames
	for {
		n, _, err := c.conn.ReadFrom(scratch)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		d := pool.GetBuf(n)
		copy(d, scratch[:n])

		flag, peeked := wire.PeekFlag(d)
		if peeked && flag != packet.OWAFR && flag != packet.OWRetransmit {
			// Control frame: full CRC-checked decode, delivered inline.
			// Receive copies what it keeps, so the reused packet and the
			// pooled buffer are both free again afterwards.
			if err := wire.DecodeInto(&ctl, d); err == nil {
				c.ctrl.Receive(&ctl)
				c.recvd.Add(1)
			} else {
				c.drops.Add(1)
			}
			pool.PutBuf(d)
			continue
		}

		depth := len(c.queue)
		if depth >= c.watermark && (!peeked || flag == packet.OWAFR) {
			// Above the watermark: shed recoverable first transmissions
			// (and unpeekable garbage) to keep room for retransmissions.
			c.shedData(d)
			continue
		}
		select {
		case c.queue <- d: // ownership moves to an ingest worker
		default:
			// Hard-full: shed whatever this is, but attribute the loss.
			// Blocking here would push the loss into the kernel buffer
			// where it is invisible.
			c.shedData(d)
		}
	}
}

// shedData records and releases one data frame the admission policy
// dropped: the overrun counter always, and — when the header peeks cleanly
// — each carried AFR charged to its sub-window's reliability accounting, so
// the sub-window finalizes with Shed set and the NACK path knows to
// re-query the gap. Peeking is advisory (no CRC): a corrupt header at
// worst misattributes a drop, it cannot corrupt controller state.
func (c *Collector) shedData(d []byte) {
	c.overrun.Add(1)
	if pk, peeked := wire.PeekDatagram(d); peeked {
		for sw, n := range pk.AFRSubWindows {
			c.shedAFRs.Add(int64(n))
			c.ctrl.NoteShed(sw, n)
		}
	}
	pool.PutBuf(d)
}

// ingestLoop decodes queued datagrams and feeds the controller.
// Retransmitted datagrams count as Recovered, not Received: a delivery
// barrier compares Received against first-transmission sends, and folding
// recoveries into it would make "everything sent has arrived" true before
// it is (the Drops-vs-Received accounting bug this split fixes).
func (c *Collector) ingestLoop() {
	defer c.wg.Done()
	// One long-lived packet per worker: DecodeInto reuses its AFR slice
	// capacity, and Receive copies everything it keeps, so the worker's
	// steady state allocates nothing.
	var p packet.Packet
	for d := range c.queue {
		err := wire.DecodeInto(&p, d)
		pool.PutBuf(d) // the frame is parsed (or rejected); release either way
		if err != nil {
			c.drops.Add(1)
			continue
		}
		c.ctrl.Receive(&p)
		if p.OW.Flag == packet.OWRetransmit {
			c.recov.Add(1)
		} else {
			c.recvd.Add(1)
		}
	}
}

// Close stops the collector gracefully: the reader exits, the queue
// drains, every in-flight ingest worker finishes, and the OnClose hook
// (if any) runs — all before Close returns. Records already read off the
// socket are never abandoned mid-decode.
func (c *Collector) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	if c.onClose != nil {
		c.onClose()
	}
	return err
}

// Drops reports datagrams that failed to decode (truncated, corrupted —
// the wire checksum catches in-flight bit flips — or garbage). Safe to
// call while the collector is running.
func (c *Collector) Drops() int { return int(c.drops.Load()) }

// Received reports first-transmission datagrams that decoded and were
// fully ingested into the controller — a delivery barrier for callers
// that must observe all sent state (once Received covers every datagram
// sent, the controller's reliability view is current). Retransmitted
// datagrams are excluded; see Recovered. Safe to call while running.
func (c *Collector) Received() int { return int(c.recvd.Load()) }

// Recovered reports ingested OWRetransmit datagrams — records the
// reliability protocol brought back after loss. Keeping them out of
// Received gives observability tests exact delivery accounting: sent
// first transmissions reconcile against Received+Drops, NACK answers
// against Recovered. Safe to call while running.
func (c *Collector) Recovered() int { return int(c.recov.Load()) }

// Overruns reports data datagrams shed by admission control — recoverable
// first transmissions at the watermark, anything when hard-full. The
// reliability protocol's retransmission covers them (§8), and each shed datagram's records are charged to their
// sub-windows' accounting (see ShedAFRs). Safe to call while running.
func (c *Collector) Overruns() int { return int(c.overrun.Load()) }

// ShedAFRs reports individual AFR records inside shed datagrams whose
// headers peeked cleanly enough to attribute (Overruns counts datagrams;
// this counts records). Safe to call while the collector is running.
func (c *Collector) ShedAFRs() int { return int(c.shedAFRs.Load()) }

// Instrument exports the collector's live counters on reg as scrape-time
// func metrics — the collector already keeps its accounting in atomics,
// so exporting reads the same variables instead of double-counting
// through parallel obs counters. Safe to call while the collector is
// running.
func (c *Collector) Instrument(reg *obs.Registry) {
	reg.CounterFunc("omniwindow_collector_received_total", "first-transmission datagrams decoded and ingested", c.recvd.Load)
	reg.CounterFunc("omniwindow_collector_recovered_total", "retransmitted datagrams ingested via the NACK path", c.recov.Load)
	reg.CounterFunc("omniwindow_collector_decode_failures_total", "datagrams that failed to decode", c.drops.Load)
	reg.CounterFunc("omniwindow_collector_overruns_total", "data datagrams shed by admission control", c.overrun.Load)
	reg.CounterFunc("omniwindow_collector_shed_afrs_total", "AFR records inside shed datagrams attributed by header peek", c.shedAFRs.Load)
	reg.GaugeFunc("omniwindow_collector_queue_depth", "raw datagrams waiting between the socket reader and ingest workers", func() int64 { return int64(len(c.queue)) })
	reg.GaugeFunc("omniwindow_collector_table_size", "flows resident in the controller key-value table", func() int64 { return int64(c.ctrl.TableSize()) })
}

// SendDatagram wire-encodes p into a pooled buffer and sends it to addr
// over conn — the switch-side transmit helper. WriteTo does not retain its
// argument (the fault-injecting wrapper copies before parking datagrams
// for reorder), so the buffer is released as soon as the send returns.
func SendDatagram(conn net.PacketConn, addr net.Addr, p *packet.Packet) error {
	buf := pool.GetBuf(wire.EncodedSize(p))
	enc, err := wire.Encode(buf, p)
	if err != nil {
		pool.PutBuf(buf)
		return err
	}
	_, err = conn.WriteTo(enc, addr)
	pool.PutBuf(enc)
	return err
}
