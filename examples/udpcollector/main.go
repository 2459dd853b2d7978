// udpcollector splits OmniWindow across two "machines" connected by real
// UDP sockets on loopback: the switch process runs the data plane
// (window manager + flowkey tracking + AFR generation on the simulated
// pipeline) and ships every controller-bound packet as a wire-encoded
// datagram; the collector process runs a UDP listener feeding the
// controller, which assembles the merged window and answers the query —
// the paper's DPDK collection path as an ordinary network service.
//
// The uplink is deliberately lossy: a seeded fault schedule drops,
// duplicates and reorders a few percent of the AFR datagrams, and the §8
// NACK/retransmit recovery loop repairs the gaps before each region
// resets — so the printed windows are exact despite the losses.
//
// Run with:
//
//	go run ./examples/udpcollector
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"runtime"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
	"omniwindow/internal/window"
)

const (
	subWindow  = 100 * trace.Millisecond
	windowSub  = 5
	slots      = 4096
	bufferKeys = 8192
)

func main() {
	debugAddr := flag.String("debug", "", "serve the observability endpoint (/metrics, /debug/windows, pprof) on this address, e.g. 127.0.0.1:9900; empty disables")
	flag.Parse()

	// ---- Controller machine: UDP listener + controller. ----
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The switch side sends AFR bursts faster than a timeshared reader
	// can drain; a deep kernel buffer absorbs them (DPDK's RX ring).
	if uc, ok := serverConn.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(8 << 20)
	}
	// NewWithError (not New): a collector service must reject a bad
	// window plan gracefully instead of crashing on a panic.
	ctrl, err := controller.NewWithError(controller.Config{
		Plan:          window.Tumbling(windowSub),
		Kind:          afr.Frequency,
		Threshold:     400,
		CaptureValues: true,
		Shards:        runtime.GOMAXPROCS(0),
	})
	if err != nil {
		log.Fatalf("rejecting controller config: %v", err)
	}
	// Explicit admission control: a bounded ingest queue with watermark
	// shedding. Under overload the collector drops recoverable
	// first-transmission datagrams first (the NACK loop below brings them
	// back), keeps retransmissions until hard-full, and never sheds
	// control frames — and every shed record is charged to its
	// sub-window, so windows that overload actually damaged print as
	// DEGRADED instead of silently under-counting.
	col := serve(serverConn, ctrl, shedWatermark)

	// Manual instrumentation — this example assembles the collector from
	// parts rather than going through omniwindow.Config, so it wires the
	// observability layer by hand: the controller's counters/histograms
	// plus the collector's scrape-time queue and delivery metrics, served
	// on one endpoint. Point owtop (cmd/owtop) at it while this runs.
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		ctrl.SetObs(controller.Instrument(reg))
		col.instrument(reg)
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability endpoint: %s/metrics\n", srv.URL())
	}

	// ---- Switch machine: data plane + lossy UDP uplink. ----
	uplink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer uplink.Close()
	// The fault layer touches only AFR/retransmit frames (afrFrames).
	lossy := &lossyConn{PacketConn: uplink, filter: afrFrames, in: faults.New(faults.Config{
		Seed: 42, Drop: 0.03, Duplicate: 0.01, Reorder: 0.02, Truncate: 0.005, Corrupt: 0.005,
	})}
	send := func(p *packet.Packet) {
		if err := sendDatagram(lossy, serverConn.LocalAddr(), p); err != nil {
			log.Fatal(err)
		}
	}
	// barrier waits until the collector has accounted for every datagram
	// the fault layer actually put on the wire — ingested, rejected by
	// the decoder, or shed on overrun. The reliability protocol handles
	// the rest: dropped datagrams never arrive by design.
	barrier := func() {
		if err := lossy.flush(); err != nil {
			log.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for col.received.Load()+col.recovered.Load()+col.drops.Load()+col.overruns.Load() < lossy.delivered.Load() &&
			time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}

	mgr := window.NewManager(window.TimeoutSignal{Interval: subWindow}, window.NewRegions(2, slots))
	apps := []afr.StateApp{
		telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, 1), slots),
		telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, 2), slots),
	}
	engine := afr.NewEngine(afr.NewTracker(afr.TrackerConfig{
		BufferKeys: bufferKeys, BloomBits: 1 << 18, BloomHashes: 3,
	}), apps, mgr.Regions())
	// Each key's records leave the switch through the engine's AFR port as
	// one OWAFR datagram, sent before the enumeration moves on; the records
	// are valid only during the call, which is all send needs.
	var afrPkt packet.Packet
	engine.SetAFRPort(func(recs []packet.AFR, summ []packet.Summary) {
		afrPkt = packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, Index: recs[0].Seq, AFRs: recs, Summaries: summ}}
		send(&afrPkt)
	})

	sw := switchsim.New(0)
	var pendingCollect []uint64
	// spills counts flow keys that did not fit the flowkey array. This
	// program has no spill path to the controller, so their flows would
	// get no AFR and silently vanish from the windows.
	spills := 0
	sw.SetProgram(func(pass *switchsim.Pass) {
		p := pass.Pkt
		if engine.HandleSpecial(pass) {
			return
		}
		res := mgr.OnPacket(p, p.Time)
		for _, ended := range res.Terminated {
			trig := p.Clone()
			trig.OW.Flag = packet.OWTrigger
			trig.OW.SubWindow = ended
			trig.OW.KeyCount = uint32(engine.Tracker().KeyCount(mgr.Regions().Index(ended)))
			pass.CloneToController(trig)
			pendingCollect = append(pendingCollect, ended)
		}
		if !res.Spike {
			if _, spill := engine.Update(res.Region, p); spill {
				spills++
			}
		}
	})

	// Workload: a heavy burst on top of background flows.
	cfg := trace.DefaultConfig(3)
	cfg.Flows = 4000
	cfg.Duration = 500 * trace.Millisecond
	cfg.Anomalies = []trace.Anomaly{
		trace.HeavyBurst{Key: trace.BurstKey(0), Packets: 700, At: 250 * trace.Millisecond, Spread: 300 * trace.Millisecond},
	}
	pkts := trace.New(cfg).Generate()

	recovered := 0
	collect := func(sw64 uint64) {
		engine.BeginCollection(sw64)
		for i := 0; i < 3; i++ {
			sw.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWCollection}})
		}
		// Reliability (§8): NACK the sequence gaps and retransmit before
		// the reset below destroys the state the re-queries need.
		barrier()
		rec := controller.RecoverSubWindow(controller.DefaultRetryPolicy(),
			func() []uint32 {
				barrier()
				return ctrl.MissingSeqs(sw64)
			},
			func(seqs []uint32) error {
				recovered += len(seqs)
				for _, rp := range engine.RetransmitPackets(seqs) {
					send(rp)
				}
				return lossy.flush()
			},
			time.Sleep)
		if !rec.Complete && len(rec.Missing) > 0 {
			fmt.Printf("sub %d: %d AFRs unrecoverable after %d rounds\n",
				sw64, len(rec.Missing), rec.Rounds)
		}
		for i := 0; i < 3; i++ {
			sw.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWReset}})
		}
	}

	ship := func(out switchsim.Output) {
		for _, c := range out.ToController {
			send(c)
		}
	}
	for i := range pkts {
		ship(sw.Inject(&pkts[i]))
		for len(pendingCollect) > 0 {
			collect(pendingCollect[0])
			pendingCollect = pendingCollect[1:]
		}
	}
	// Flush the final sub-window.
	last := mgr.ForceTerminate()
	trig := &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: last,
		KeyCount: uint32(engine.Tracker().KeyCount(mgr.Regions().Index(last)))}}
	send(trig)
	collect(last)
	if spills > 0 {
		log.Fatalf("udpcollector: %d flow keys spilled past the %d-key flowkey array and would be missing from the windows; raise BufferKeys", spills, bufferKeys)
	}

	// ---- Controller machine: assemble the windows. ----
	// Graceful shutdown BEFORE assembly: Close stops the reader and
	// drains the queue through every in-flight ingest worker, so window
	// assembly below races no late ingest — and the reader goroutine is
	// gone, not leaked.
	barrier()
	if err := col.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("collector drained: all in-flight datagrams ingested")
	for sub := uint64(0); sub <= last; sub++ {
		if missing := ctrl.MissingSeqs(sub); missing != nil {
			fmt.Printf("sub %d: %d AFRs still missing after recovery\n", sub, len(missing))
		}
		for _, w := range ctrl.FinishSubWindow(sub) {
			marker := ""
			if w.Incomplete {
				marker = fmt.Sprintf(" [INCOMPLETE: %d AFRs lost]", w.MissingAFRs)
			}
			if w.Degraded {
				marker += fmt.Sprintf(" [DEGRADED: %d AFRs shed under overload]", w.ShedAFRs)
			} else if w.ShedAFRs > 0 {
				marker += fmt.Sprintf(" [%d AFRs shed, all recovered]", w.ShedAFRs)
			}
			fmt.Printf("window [sub %d..%d]%s: %d flows merged, heavy hitters:\n",
				w.Start, w.End, marker, len(w.Values))
			for _, k := range w.Detected {
				fmt.Printf("  %s = %d packets\n", k, w.Values[k])
			}
		}
	}
	fmt.Printf("uplink: %d datagrams on the wire, %d first deliveries, %d recovered, %d NACKed, %d decode failures, %d datagrams shed (%d AFRs)\n",
		lossy.delivered.Load(), col.received.Load(), col.recovered.Load(), recovered, col.drops.Load(), col.overruns.Load(), col.shedAFRs.Load())
}

// afrFrames selects the AFR and retransmit datagrams, by the wire flag
// octet, as the ones the uplink's faults touch: trigger frames stay
// lossless so the controller always learns the key count (a lost trigger
// makes gap detection blind — the documented limitation of §8's counting
// scheme).
func afrFrames(b []byte) bool {
	return len(b) > 3 && (b[3] == byte(packet.OWAFR) || b[3] == byte(packet.OWRetransmit))
}
