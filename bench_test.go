package omniwindow_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding result at SmallScale and logs the table;
// run with
//
//	go test -bench . -benchtime 1x
//
// to print every reproduction once. Absolute numbers come from the
// simulated substrate (see DESIGN.md); the comparisons mirror the paper's.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	omniwindow "omniwindow"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/dml"
	"omniwindow/internal/durable"
	"omniwindow/internal/experiments"
	"omniwindow/internal/faults"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/rdma"
	"omniwindow/internal/sketch"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

const benchSeed = 2023

// BenchmarkExp1QueryDriven reproduces Figure 7: Q1-Q7 precision/recall
// under ITW, ISW, TW1, TW2, OTW, OSW.
func BenchmarkExp1QueryDriven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp1(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Exp#1 (Figure 7)\n%s", res.Table())
		}
	}
}

// BenchmarkExp2Sketches reproduces Figure 8: the eight sketch algorithms
// under the six window settings plus Sliding Sketch.
func BenchmarkExp2Sketches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp2(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Exp#2 (Figure 8)\n%s", res.Table())
		}
	}
}

// BenchmarkExp3DML reproduces Figure 9: per-iteration DML transfer times
// measured through user-defined window signals.
func BenchmarkExp3DML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp3(dml.DefaultConfig(benchSeed))
		if i == 0 {
			b.Logf("Exp#3 (Figure 9), max measurement error %.4f\n%s", res.MaxRelError(), res.Table())
		}
	}
}

// BenchmarkExp4ControllerBreakdown reproduces Figure 10: the controller's
// per-sub-window O1-O5 time breakdown (real wall-clock measurements).
func BenchmarkExp4ControllerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp4(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Exp#4 (Figure 10)\n%s", res.Table())
		}
	}
}

// BenchmarkExp5SwitchResources reproduces Table 2: per-feature switch
// resource usage.
func BenchmarkExp5SwitchResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp5(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Exp#5 (Table 2)\n%s", res.Table())
		}
	}
}

// BenchmarkExp6AFRCollection reproduces Figure 11: AFR generation and
// collection time for OS, CPC, DPC, OW and the RDMA variants.
func BenchmarkExp6AFRCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp6(experiments.DefaultExp6Config())
		if i == 0 {
			passes, afrs := experiments.ValidateExp6Passes(4096, 16)
			b.Logf("Exp#6 (Figure 11) [functional check: %d passes, %d AFRs]\n%s", passes, afrs, res.Table())
		}
	}
}

// BenchmarkExp7AFRAggregation reproduces Figure 12: scalar vs vectorized
// aggregation of 1M AFRs (real wall-clock).
func BenchmarkExp7AFRAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp7(1 << 20)
		if i == 0 {
			b.Logf("Exp#7 (Figure 12)\n%s", res.Table())
		}
	}
}

// BenchmarkExp8InSwitchReset reproduces Figure 13: reset time, OS path vs
// OW-4/8/16 clear packets, for 1-4 registers of 64K entries.
func BenchmarkExp8InSwitchReset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp8(65536, switchsim.DefaultCosts())
		if i == 0 {
			passes, clean := experiments.ValidateExp8Reset(4, 4096, 16)
			b.Logf("Exp#8 (Figure 13) [functional check: %d passes, clean=%v]\n%s", passes, clean, res.Table())
		}
	}
}

// BenchmarkExp9Consistency reproduces Figure 14: LossRadar precision
// under PTP clock deviation, local clocks vs OmniWindow stamping.
func BenchmarkExp9Consistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp9(experiments.DefaultExp9Config(benchSeed))
		if i == 0 {
			b.Logf("Exp#9 (Figure 14)\n%s", res.Table())
		}
	}
}

// BenchmarkExp10WindowSizes reproduces Figure 15: heavy-hitter accuracy
// as the user-desired window grows from 0.5s to 2s.
func BenchmarkExp10WindowSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunExp10(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Exp#10 (Figure 15)\n%s", res.Table())
		}
	}
}

// BenchmarkAblationMergeStrategy compares the three sub-window merge
// strategies of §4.1 (A1).
func BenchmarkAblationMergeStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationMerge(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Ablation A1 (merge strategies)\n%s", res.Table())
		}
	}
}

// BenchmarkAblationSALULayout compares the flat single-SALU layout with
// naive per-region registers (A2).
func BenchmarkAblationSALULayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationSALU(4, 65536, 2)
		if i == 0 {
			b.Logf("Ablation A2 (SALU layout)\n%s", res.Table())
		}
	}
}

// BenchmarkAblationFlowkeyArray sweeps the flowkey-array size (A3).
func BenchmarkAblationFlowkeyArray(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationFlowkey(experiments.SmallScale(benchSeed), []int{1024, 4096, 16384})
		if i == 0 {
			b.Logf("Ablation A3 (flowkey array)\n%s", res.Table())
		}
	}
}

// BenchmarkAblationSubWindowCount sweeps the sub-windows per window (A5).
func BenchmarkAblationSubWindowCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationSubWindows(experiments.SmallScale(benchSeed), []int{2, 5, 10})
		if i == 0 {
			b.Logf("Ablation A5 (sub-window count)\n%s", res.Table())
		}
	}
}

// BenchmarkControllerSharded measures the controller's O2 (insert) + O3
// (merge) hot path — one full sub-window ingested and assembled per
// iteration — as the shard count grows. shards=1 is the sequential
// baseline; higher shard counts fan the key-value table work across
// cores (ingest is additionally driven from GOMAXPROCS goroutines, as the
// concurrent collector would). The per-iteration flow population mirrors
// the paper's 64K flows per 100 ms sub-window.
func BenchmarkControllerSharded(b *testing.B) {
	const flows = 1 << 16
	procs := runtime.GOMAXPROCS(0)
	shardCounts := []int{1, 2, 4}
	if procs > 4 {
		shardCounts = append(shardCounts, procs)
	}
	// Pre-generate one sub-window's records: unique well-spread keys,
	// rewritten to the iteration's sub-window number inside the loop.
	base := make([]packet.AFR, flows)
	for i := range base {
		h := hashing.Mix64(uint64(i) + 1)
		base[i] = packet.AFR{
			Key: packet.FlowKey{
				SrcIP: uint32(h), DstIP: uint32(h >> 32),
				SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Attr: uint64(i%100 + 1),
			Seq:  uint32(i),
		}
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ctrl := controller.New(controller.Config{
				Plan: window.Tumbling(1), Kind: afr.Frequency,
				Threshold: flows + 1, Shards: shards,
			})
			recs := make([]packet.AFR, flows)
			copy(recs, base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw := uint64(i)
				for j := range recs {
					recs[j].SubWindow = sw
				}
				// Concurrent ingest, one chunk per core.
				var wg sync.WaitGroup
				chunk := (flows + procs - 1) / procs
				for at := 0; at < flows; at += chunk {
					end := at + chunk
					if end > flows {
						end = flows
					}
					wg.Add(1)
					go func(part []packet.AFR) {
						defer wg.Done()
						ctrl.IngestAFRs(part)
					}(recs[at:end])
				}
				wg.Wait()
				ctrl.FinishSubWindow(sw)
			}
			b.StopTimer()
			b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "AFRs/s")
		})
	}
}

// benchBase generates n well-spread unique-key AFRs for sub-window 0.
func benchBase(n int) []packet.AFR {
	recs := make([]packet.AFR, n)
	for i := range recs {
		h := hashing.Mix64(uint64(i) + 1)
		recs[i] = packet.AFR{
			Key: packet.FlowKey{
				SrcIP: uint32(h), DstIP: uint32(h >> 32),
				SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP,
			},
			Attr: uint64(i%100 + 1),
			Seq:  uint32(i),
		}
	}
	return recs
}

// BenchmarkControllerIngestBatch measures the steady-state batched ingest
// path alone — one IngestAFRs call per iteration, sub-window assembly
// excluded via StopTimer — at several batch sizes. Run with -benchmem:
// the pooled steady state must sit at ~0 allocs/op, which the CI
// bench-regression gate pins against the checked-in baseline.
func BenchmarkControllerIngestBatch(b *testing.B) {
	const flowsPerSW = 1 << 16
	for _, batch := range []int{1, 32, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ctrl := controller.New(controller.Config{
				Plan: window.Tumbling(1), Kind: afr.Frequency,
				Threshold: flowsPerSW + 1, Shards: runtime.GOMAXPROCS(0),
				ExpectedFlows: flowsPerSW,
			})
			recs := benchBase(flowsPerSW)
			b.ReportAllocs()
			b.ResetTimer()
			at, sw := 0, uint64(0)
			for i := 0; i < b.N; i++ {
				end := at + batch
				if end > flowsPerSW {
					end = flowsPerSW
				}
				ctrl.IngestAFRs(recs[at:end])
				at = end
				if at == flowsPerSW {
					// Rotate the sub-window outside the timer: this
					// benchmark isolates per-batch ingest cost.
					b.StopTimer()
					ctrl.FinishSubWindow(sw)
					sw++
					for j := range recs {
						recs[j].SubWindow = sw
					}
					at = 0
					b.StartTimer()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "AFRs/s")
		})
	}
}

// BenchmarkCollectorDecodeIngest measures the collector worker loop body:
// wire-decode one MTU-sized AFR frame into a long-lived packet, then
// batched controller ingest — the per-datagram cost of the UDP path. Run
// with -benchmem: the pooled steady state must sit at ~0 allocs/op.
func BenchmarkCollectorDecodeIngest(b *testing.B) {
	const (
		batch    = wire.MaxAFRsPerDatagram
		flowsPSW = 1 << 14
		nFrames  = flowsPSW / batch
	)
	ctrl := controller.New(controller.Config{
		Plan: window.Tumbling(1), Kind: afr.Frequency,
		Threshold: flowsPSW + 1, Shards: runtime.GOMAXPROCS(0),
		ExpectedFlows: flowsPSW,
	})
	recs := benchBase(flowsPSW)
	frames := make([][]byte, nFrames)
	encode := func() {
		for f := 0; f < nFrames; f++ {
			enc, err := wire.Encode(frames[f][:0], &packet.Packet{OW: packet.OWHeader{
				Flag: packet.OWAFR, AFRs: recs[f*batch : (f+1)*batch],
			}})
			if err != nil {
				b.Fatal(err)
			}
			frames[f] = enc
		}
	}
	encode()
	var p packet.Packet
	b.ReportAllocs()
	b.ResetTimer()
	fi, sw := 0, uint64(0)
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeInto(&p, frames[fi]); err != nil {
			b.Fatal(err)
		}
		ctrl.Receive(&p)
		fi++
		if fi == nFrames {
			b.StopTimer()
			ctrl.FinishSubWindow(sw)
			sw++
			for j := range recs {
				recs[j].SubWindow = sw
			}
			encode()
			fi = 0
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "AFRs/s")
}

// BenchmarkSketchZoo compares every heavy-hitter-capable sketch in the
// library under OmniWindow at equal memory (an extension beyond the
// paper's MV/HP pair).
func BenchmarkSketchZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunSketchZoo(experiments.SmallScale(benchSeed))
		if i == 0 {
			b.Logf("Extension (sketch zoo)\n%s", res.Table())
		}
	}
}

// BenchmarkProcessPacket measures the per-packet path alone — switch pass,
// window stamp, flowkey tracking, Count-Min update — on one sub-window of
// the repository benchmark's pkt_heavy workload (bench/workloads.go: the
// same flow mix, sketch and default tracker, one fifteenth of the trace).
// One op replays the whole slice (about 80 K packets), so -benchtime 100x
// is long enough to time; ns/pkt is the per-packet figure. Every packet
// stays inside sub-window 0 and a warm-up pass has tracked every key, so
// this is the steady state: no termination, no spill, and — pinned by the
// bench-regression gate's 0 allocs/op baseline — no allocation.
func BenchmarkProcessPacket(b *testing.B) {
	const subWindow = 100 * time.Millisecond
	cfg := trace.Config{Seed: benchSeed, Duration: int64(subWindow), Flows: 1600, MaxFlowPackets: 400}
	for i := 0; i < 256; i++ {
		cfg.Anomalies = append(cfg.Anomalies, trace.HeavyBurst{
			Key: trace.BurstKey(i), Packets: 80, At: cfg.Duration / 2, Spread: cfg.Duration,
		})
	}
	pkts := trace.New(cfg).Generate() // every Time < Duration: all of sub-window 0
	width := sketch.NewCountMinBytes(4, 256<<10, 1).Width()
	d, err := omniwindow.New(omniwindow.Config{
		SubWindow: subWindow,
		Plan:      window.Tumbling(5),
		Kind:      afr.Frequency,
		Threshold: 300,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMinBytes(4, 256<<10, uint64(region+1)), width)
		},
		Slots:             width,
		CollectionPackets: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	replay := func() {
		for i := range pkts {
			d.ProcessPacket(&pkts[i])
		}
	}
	replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if st := d.Stats(); st.Spills != 0 || st.SubWindows != 0 {
		b.Fatalf("not the steady state: %d spills, %d sub-windows collected", st.Spills, st.SubWindows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

// BenchmarkBoundaryCollect measures one flow_churn-shaped boundary per op:
// 34 000 single-packet flows, new every sub-window, overflow the default
// 32 K flowkey array, so a boundary enumerates the array, injects the
// spilled keys, delivers every AFR to the controller and assembles the
// sliding window. Feeding the sub-window's packets is untimed; the timed
// part is Tick(edge) .. Tick(edge+grace), as in bench/replay.go. ns/AFR
// covers enumeration, delivery and finish; allocs/AFR is dominated by
// finish (the switch and delivery side add about 0.03).
func BenchmarkBoundaryCollect(b *testing.B) {
	const (
		subWindow = 100 * time.Millisecond
		flows     = 34_000
	)
	width := sketch.NewCountMinBytes(4, 256<<10, 1).Width()
	d, err := omniwindow.New(omniwindow.Config{
		SubWindow: subWindow,
		Plan:      window.SlidingPlan(5, 1),
		Kind:      afr.Frequency,
		Threshold: 15,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMinBytes(4, 256<<10, uint64(region+1)), width)
		},
		Slots:             width,
		CollectionPackets: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	grace := int64(switchsim.DefaultCosts().ControllerWait)
	sw := 0
	var m0, m1 runtime.MemStats
	var mallocs uint64
	boundary := func(timed bool) {
		start := int64(sw) * int64(subWindow)
		for i := 0; i < flows; i++ {
			n := uint32(sw*flows + i + 1)
			d.ProcessPacket(&packet.Packet{
				Key:  packet.FlowKey{SrcIP: n, DstIP: 9, SrcPort: uint16(n), DstPort: 443, Proto: packet.ProtoTCP},
				Size: 100, Time: start + int64(i),
			})
		}
		sw++
		edge := int64(sw) * int64(subWindow)
		if timed {
			runtime.ReadMemStats(&m0)
			b.StartTimer()
		}
		d.Tick(edge)
		d.Tick(edge + grace)
		if timed {
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
		}
	}
	for i := 0; i < 6; i++ { // fill the sliding window and warm every scratch buffer
		boundary(false)
	}
	before := d.Stats()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		boundary(true)
	}
	st := d.Stats()
	afrs := st.AFRs - before.AFRs
	if afrs < b.N*flows*9/10 || st.Spills == before.Spills || st.SubWindows-before.SubWindows != b.N {
		b.Fatalf("not a flow_churn boundary: %d AFRs, %d spills over %d sub-windows",
			afrs, st.Spills-before.Spills, st.SubWindows-before.SubWindows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(afrs), "ns/AFR")
	b.ReportMetric(float64(mallocs)/float64(afrs), "allocs/AFR")
}

// benchRDMATrace builds a deterministic 5-sub-window, 40-flow trace for
// the RDMA collection benchmarks (sub-windows are 100 ms).
func benchRDMATrace() []packet.Packet {
	const ms = int64(time.Millisecond)
	var pkts []packet.Packet
	for swi := int64(0); swi < 5; swi++ {
		at := swi*100*ms + 50*ms
		for f := 1; f <= 40; f++ {
			n := 3 + (f+int(swi)*5)%7
			for i := 0; i < n; i++ {
				pkts = append(pkts, packet.Packet{
					Key:  packet.FlowKey{SrcIP: uint32(f), DstIP: 9, SrcPort: uint16(f), DstPort: 443, Proto: packet.ProtoTCP},
					Size: 100, Seq: uint32(i), Time: at + int64(i)*ms,
				})
			}
		}
	}
	return pkts
}

// benchRDMACollect runs the full RDMA deployment over the fixed trace
// once per iteration under the given transport fault schedule.
func benchRDMACollect(b *testing.B, sched *faults.RDMASchedule) {
	pkts := benchRDMATrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := omniwindow.New(omniwindow.Config{
			SubWindow: 100 * time.Millisecond,
			Plan:      window.SlidingPlan(3, 1),
			Kind:      afr.Frequency,
			Threshold: 25,
			AppFactory: func(region int) afr.StateApp {
				return telemetry.NewFrequencyApp(sketch.NewCountMin(4, 4096, uint64(region+1)), 4096)
			},
			Slots:         4096,
			Tracker:       afr.TrackerConfig{BufferKeys: 1024, BloomBits: 1 << 16, BloomHashes: 3},
			CaptureValues: true,
			RDMA:          true,
			RDMAFaults:    sched,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res := d.RunFor(pkts, 500*int64(time.Millisecond)); len(res) == 0 {
			b.Fatal("no windows produced")
		}
	}
}

// BenchmarkRDMACollect measures the RDMA collection path end to end —
// fault-free against a transport that is actively recovering (PSN drops
// feeding the replay loop plus boundary QP errors forcing fallback). The
// bench-regression gate tracks both: recovery machinery must not tax the
// healthy path, and the recovering path must stay within its budget.
func BenchmarkRDMACollect(b *testing.B) {
	b.Run("fault-free", func(b *testing.B) {
		benchRDMACollect(b, nil)
	})
	b.Run("recovering", func(b *testing.B) {
		benchRDMACollect(b, &faults.RDMASchedule{Seed: 1,
			VerbError: 0.15, PSNDrop: 0.20,
			QPError: faults.CrashSchedule{Prob: 0.3}})
	})
}

// BenchmarkTransportSendFullWindow measures cold Sends into a replay
// window already holding ReplayDepth verbs — the regime every send of a
// boundary larger than the window runs in, where each send also evicts
// the oldest verb. One op is 1024 sends, so -benchtime 100x is timeable.
// The cost must not depend on the depth, and the path must not allocate.
func BenchmarkTransportSendFullWindow(b *testing.B) {
	const sendsPerOp, opsPerDrain = 1024, 16
	for _, depth := range []int{100, 8192} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			tr := rdma.NewTransport(rdma.TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 16, ReplayDepth: depth})
			rec := packet.AFR{Key: packet.FlowKey{SrcIP: 1, Proto: packet.ProtoTCP}, Attr: 1}
			fill := func() {
				for i := 0; i < depth; i++ {
					tr.Send(rec)
				}
			}
			// Two untimed rounds grow both halves of the cold buffer to
			// what a round between drains appends.
			for round := 0; round < 2; round++ {
				fill()
				for i := 0; i < opsPerDrain*sendsPerOp; i++ {
					tr.Send(rec)
				}
				tr.Drain(0)
			}
			fill()
			if got := tr.PendingLen(); got != depth {
				b.Fatalf("window holds %d verbs, want a full %d", got, depth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%opsPerDrain == opsPerDrain-1 {
					// Empty the cold buffer before it overflows, then
					// refill the window the drain acked.
					b.StopTimer()
					tr.Drain(0)
					fill()
					b.StartTimer()
				}
				for j := 0; j < sendsPerOp; j++ {
					if _, delivered := tr.Send(rec); !delivered {
						b.Fatal("send fell back")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sendsPerOp), "ns/send")
		})
	}
}

// BenchmarkWALAppendRotating measures the durable WAL append hot path
// under realistic segment rotation: 8-AFR batches against a 16 KiB
// segment cap, so seal-and-rotate cost amortizes into the steady state
// the deployment's logBatch actually pays. Run with -benchmem: the
// fault-free append must sit at 0 allocs/op (rotation itself may
// allocate; it is off the per-append path). The bench-regression gate
// pins both time and allocations against the checked-in baseline.
func BenchmarkWALAppendRotating(b *testing.B) {
	s, err := durable.OpenStore(b.TempDir(), 1, durable.Options{SegmentBytes: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	afrs := make([]packet.AFR, 8)
	for i := range afrs {
		afrs[i] = packet.AFR{
			Key:  packet.FlowKey{SrcPort: uint16(i), DstPort: 443, Proto: 6},
			Attr: uint64(i), Seq: uint32(i), SubWindow: 0,
		}
	}
	// Prime: open the first segment and grow the encode scratch.
	for i := 0; i < 4; i++ {
		if err := s.AppendBatch(0, 0, false, afrs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendBatch(0, 0, false, afrs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(afrs))*float64(b.N)/b.Elapsed().Seconds(), "AFRs/s")
	b.ReportMetric(float64(s.Rotations()), "rotations")
	// Calibration passes (tiny b.N) legitimately stay inside one segment.
	if b.N >= 512 && s.Rotations() == 0 {
		b.Fatal("segment cap never rotated during the bench")
	}
}

// BenchmarkFailoverPromotion measures the two durable halves of a
// partition failover. term-handshake is the promotion critical path —
// the CAS that advances the fencing term plus the adopt that grants the
// promoted standby write authority, each persisting the sealed term
// record. fenced-append is the zombie side: a WAL append attempted under
// a stale term, which the store must reject in constant time with zero
// allocations — the deposed primary pays nothing to discover its
// demotion. The bench-regression gate pins both against the checked-in
// baseline (fenced-append at 0 allocs/op).
func BenchmarkFailoverPromotion(b *testing.B) {
	b.Run("term-handshake", func(b *testing.B) {
		s, err := durable.OpenStore(b.TempDir(), 1, durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, err := s.CASTerm(s.Term(), 2)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.AdoptTerm(next); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fenced-append", func(b *testing.B) {
		s, err := durable.OpenStore(b.TempDir(), 1, durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := s.AppendFinish(0); err != nil {
			b.Fatal(err)
		}
		// Advance the authoritative term without adopting: this handle
		// is now the zombie.
		if _, err := s.CASTerm(s.Term(), 2); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AppendFinish(1); err == nil {
				b.Fatal("stale-term append was accepted")
			}
		}
		b.StopTimer()
		if s.FencedWrites() < int64(b.N) {
			b.Fatal("fenced writes were not counted")
		}
	})
}
