package omniwindow

import (
	"reflect"
	"runtime"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/durable"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// Batch-boundary trace: batchFlows flows in each of five sub-windows, more
// than two delivery batches, so every boundary flushes full batches and
// ends on a partly filled one (300 = 2×128 + 44). With spillTracker the
// flowkey array holds only 200 of them: Phase 1 ends mid-batch (128 + 72)
// and the spilled remainder fills and flushes that batch mid-Phase-2.
const batchFlows = 300

func spillTracker(c *Config) {
	c.Tracker = afr.TrackerConfig{BufferKeys: 200, BloomBits: 1 << 16, BloomHashes: 3}
}

func batchTrace() []packet.Packet {
	var pkts []packet.Packet
	for swi := 0; swi < 5; swi++ {
		for i := 0; i < 3; i++ {
			for f := 1; f <= batchFlows; f++ {
				if i > (f+swi)%3 {
					continue // flow f sends 1 + (f+swi)%3 packets in this sub-window
				}
				pkts = append(pkts, packet.Packet{
					Key: fk(f), Size: 100, Seq: uint32(i),
					Time: int64(swi)*100*ms + int64(i)*30*ms + int64(f)*ms/20,
				})
			}
		}
	}
	return pkts
}

func batchConfig(mutate func(*Config)) Config {
	cfg := freqConfig(window.SlidingPlan(3, 1), 6, false)
	cfg.plan.retry = fastRetry(4)
	cfg.Shards = 2
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func runBatch(t *testing.T, mutate func(*Config)) *Deployment {
	t.Helper()
	d, err := New(batchConfig(mutate))
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(batchTrace(), 500*ms)
	return d
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name, "").Value() }

// TestCollectBatchFlushPoints holds the delivery batch to the behaviour of
// one-clone-at-a-time delivery at each place a flush must sit.
func TestCollectBatchFlushPoints(t *testing.T) {
	baseline := runBatch(t, nil)
	if st := baseline.Stats(); st.AFRs != 5*batchFlows || len(baseline.Results()) == 0 {
		t.Fatalf("baseline is not the batch-boundary shape: %+v", st)
	}

	// The loss and failover cases run twice, the second time over
	// spillTracker, whose 200-key array sends a third of every sub-window's
	// records down the injected-key path: those are NACKed and recovered
	// like the rest, count for count.
	named := func(name string, spill bool) string {
		if spill {
			return name + "+spill"
		}
		return name
	}

	// (a) Fault draws stay per clone, in the old order; the flag-change
	// flush keeps first deliveries and recoveries in separate packets; the
	// flush after each retransmit round lets MissingSeqs see it. The
	// counts below were read off the parent commit, which delivered every
	// clone on its own.
	for _, spill := range []bool{false, true} {
		t.Run(named("faults", spill), func(t *testing.T) {
			const (
				wantRetransmitted  = 1083
				wantRecoveryRounds = 9
				wantDuplicates     = 352
				wantRecovered      = 601
			)
			reg := obs.NewRegistry()
			d, err := New(batchConfig(func(c *Config) {
				c.plan.afrFaults = &everyThird{next: faults.New(faults.Config{Seed: 1, Drop: 0.10, Duplicate: 0.20, MaxDuplicates: 2})}
				c.Obs = reg
				if spill {
					spillTracker(c)
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			d.RunFor(batchTrace(), 500*ms)
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatal("faulted run's windows differ from the fault-free run's")
			}
			st := d.Stats()
			dups := counter(reg, "omniwindow_controller_duplicates_total")
			rec := counter(reg, "omniwindow_controller_recovered_total")
			if st.Retransmitted != wantRetransmitted || st.RecoveryRounds != wantRecoveryRounds ||
				dups != wantDuplicates || rec != wantRecovered || st.IncompleteSubWindows != 0 {
				t.Fatalf("retransmitted %d (want %d), rounds %d (want %d), duplicates %d (want %d), recovered %d (want %d), incomplete %d",
					st.Retransmitted, wantRetransmitted, st.RecoveryRounds, wantRecoveryRounds,
					dups, wantDuplicates, rec, wantRecovered, st.IncompleteSubWindows)
			}
		})
	}

	// (b) The flush before the failover probe: everything Phases 1 and 2
	// delivered — the partial batch included — went to the dead primary
	// and into the log, so the controller the promotion rebuilds from the
	// log holds the whole sub-window and NACKs back nothing.
	for _, spill := range []bool{false, true} {
		t.Run(named("failover", spill), func(t *testing.T) {
			reg := obs.NewRegistry()
			d, err := New(batchConfig(func(c *Config) {
				c.CheckpointDir = t.TempDir()
				c.plan.crash = crashes(2)
				c.Standby = true
				c.Obs = reg
				if spill {
					spillTracker(c)
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			primary := d.ctrl
			d.RunFor(batchTrace(), 500*ms)
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			st := d.Stats()
			if st.Failovers != 1 || d.ctrl == primary {
				t.Fatalf("no failover: %+v", st)
			}
			if got := primary.Reliability(2).Received; got != batchFlows {
				t.Fatalf("dead primary had received %d of sub-window 2's %d records before the probe", got, batchFlows)
			}
			if st.Retransmitted != 0 || st.IncompleteSubWindows != 0 {
				t.Fatalf("retransmitted %d want 0: the log held the takeover sub-window's %d records; incomplete %d",
					st.Retransmitted, batchFlows, st.IncompleteSubWindows)
			}
			if dups := counter(reg, "omniwindow_controller_duplicates_total"); dups != 0 {
				t.Fatalf("%d records reached the promoted controller twice: a batch straddled the promotion", dups)
			}
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatal("failover changed the windows")
			}
		})
	}

	// (c) WAL group commit: a boundary writes one frame per delivery
	// batch, and those frames replay exactly — here with a third of the
	// records arriving by the spilled-key path. The store dies inside the
	// checkpoint of boundary 2, so the restart replays that boundary's
	// batch frames.
	t.Run("wal", func(t *testing.T) {
		const (
			// The store keeps one log, so beside the batch frames a boundary
			// pays each of these once, not once per controller shard: the
			// trigger and finish frames, the header of the segment the log
			// reopens after a checkpoint, and the scrub's read-back of that
			// segment; then the scrub's reads of the manifest and one cut
			// file, and a checkpoint's cut write, temp write and rename.
			boundaryOps = 2 + 1 + 1 + 2 + 3
		)
		pkts := batchTrace()
		r := crashCase{
			config: func(dir string) Config {
				return batchConfig(func(c *Config) {
					spillTracker(c)
					c.CheckpointDir = dir
					c.plan.durable.FS = durable.NewFaultFS(nil, &faults.DiskSchedule{})
				})
			},
			pkts: pkts, b: 2, point: uncommitted,
			drive: func(d1 *Deployment) {
				next := 0
				for k := 1; k <= 5 && !d1.storeDead; k++ {
					edge := int64(k) * 100 * ms
					for ; next < len(pkts) && pkts[next].Time < edge; next++ {
						d1.ProcessPacket(&pkts[next])
					}
					d1.Tick(edge)
					ops := d1.store.FSOps()
					d1.Tick(edge + int64(d1.cfg.Grace))
					ops = d1.store.FSOps() - ops
					batches := (batchFlows + afrBatchCap - 1) / afrBatchCap
					if limit := uint64(batches + boundaryOps); ops == 0 || ops > limit {
						t.Fatalf("boundary %d issued %d filesystem operations, want 1..%d (one per AFR would be %d)",
							k-1, ops, limit, batchFlows)
					}
				}
				if d1.Stats().Spills == 0 {
					t.Fatal("no key spilled")
				}
			},
		}.run(t)
		if !reflect.DeepEqual(baseline.Results(), r.stitched) {
			t.Fatalf("crash-restart from batched WAL frames not exact:\nuncrashed: %+v\nstitched:  %+v",
				baseline.Results(), r.stitched)
		}
	})
}

// TestAFRPortRecordsLiveOnlyForTheCall holds the record port's lifetime
// contract: the records the engine hands its AFR port are valid only during
// the call. A port wrapped to overwrite them with garbage right after
// deliverRecords returns must leave the packet, RDMA and durable arms'
// windows and Stats byte-identical, under a drop/duplicate schedule (so a
// duplicate is re-delivered from the same call's records) and with a third
// of every sub-window's records taking the injected-key path. A delivery
// that keeps the slice instead of copying it reads the garbage.
func TestAFRPortRecordsLiveOnlyForTheCall(t *testing.T) {
	for _, arm := range []struct {
		name   string
		mutate func(*testing.T, *Config)
	}{
		{"packet", func(*testing.T, *Config) {}},
		{"rdma", func(_ *testing.T, c *Config) { c.RDMA = true }},
		{"durable", func(t *testing.T, c *Config) { c.CheckpointDir = t.TempDir() }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			run := func(clobber bool) *Deployment {
				d, err := New(batchConfig(func(c *Config) {
					spillTracker(c)
					c.plan.afrFaults = &everyThird{next: faults.New(faults.Config{Seed: 1, Drop: 0.10, Duplicate: 0.20, MaxDuplicates: 2})}
					arm.mutate(t, c)
				}))
				if err != nil {
					t.Fatal(err)
				}
				if clobber {
					d.engine.SetAFRPort(func(recs []packet.AFR, summ []packet.Summary) {
						d.deliverRecords(packet.OWAFR, recs, summ)
						for i := range recs {
							recs[i] = packet.AFR{Key: fk(1 << 20), Attr: 1 << 40, SubWindow: recs[i].SubWindow, Seq: ^recs[i].Seq}
						}
					})
				}
				d.RunFor(batchTrace(), 500*ms)
				if err := d.CloseDurability(); err != nil {
					t.Fatal(err)
				}
				return d
			}
			want, got := run(false), run(true)
			if st := want.Stats(); st.Spills == 0 || len(want.Results()) == 0 {
				t.Fatalf("nothing spilled or no window emitted: %+v", st)
			}
			if !reflect.DeepEqual(want.Results(), got.Results()) {
				t.Fatal("overwriting the port's records after the call changed the windows: a delivery kept them")
			}
			if !reflect.DeepEqual(want.Stats(), got.Stats()) {
				t.Fatalf("overwriting the port's records after the call changed the stats:\nwant %+v\ngot  %+v", want.Stats(), got.Stats())
			}
		})
	}
}

// TestStaleCollectDropsSpilledKeys: a sub-window whose region a newer one
// takes over before its collection runs has nothing to collect — its
// spilled keys must still leave the map.
func TestStaleCollectDropsSpilledKeys(t *testing.T) {
	d, err := New(batchConfig(spillTracker))
	if err != nil {
		t.Fatal(err)
	}
	// Sub-window 0 spills, sub-window 1 is idle, and sub-window 2's first
	// packet arrives — without a Tick in between — before sub-window 0's
	// grace period has run: region 0 changes hands with 0 uncollected.
	feed := func(at int64) {
		for f := 1; f <= batchFlows; f++ {
			d.ProcessPacket(&packet.Packet{Key: fk(f), Size: 100, Time: at + int64(f)})
		}
	}
	feed(10 * ms)
	if d.Stats().Spills == 0 || len(d.spilled[0]) == 0 {
		t.Fatalf("sub-window 0 did not spill: %+v", d.Stats())
	}
	feed(210 * ms)
	d.Finalize()
	if st := d.Stats(); st.SubWindows != 3 {
		t.Fatalf("want sub-windows 0, 1 and 2 collected: %+v", st)
	}
	if len(d.spilled) != 0 {
		t.Fatalf("spilled keys of %d sub-window(s) left behind: a stale collection leaked them", len(d.spilled))
	}
	// Sub-window 0's records really are gone, and its window must say so:
	// the in-band trigger announces its keys before the packet that ended it
	// takes the region over. (Announcing after would read "not the owner, 0
	// keys" and emit the window short and unflagged.)
	if w := d.Results(); len(w) != 1 || !w[0].Incomplete || w[0].MissingAFRs != 200 {
		t.Fatalf("want one window, Incomplete with the 200 tracked keys Missing; got %d windows", len(w))
	}
}

// TestBoundaryAllocsPerAFR gates the whole boundary — enumeration,
// delivery and the controller's finish — at 0.01 allocations and 16 bytes
// per AFR, over both transports. The allocations are counted over whole
// steady-state boundaries, packet phase included (its only allocations are
// the spilled-key lists), and read ≈ 0.003; the bytes are counted from the
// first Tick to the second, the boundary alone, and read ≈ 0.6. A reading
// near 0.028 allocations means each spilled key reaches the controller as
// a packet clone again; near 0.061 allocations and 259 B, that each AFR is
// a packet clone with its own record again (136 + 80 B, slab-carved), 3
// that the clones are single heap objects. The RDMA program does not fit the
// pipeline beside a 4 Mbit Bloom filter, so its arm tracks keys with a
// 2 Mbit one (1 Mbit lets a false positive through); it reads what the
// packet arm reads, the cold ring, replay ring and arena being reused from
// boundary to boundary.
func TestBoundaryAllocsPerAFR(t *testing.T) {
	const (
		flows  = 8400
		buffer = 8192
		warm   = 6
		runs   = 4
	)
	for _, arm := range []struct {
		name      string
		rdma      bool
		bloomBits int
	}{{"packet", false, 1 << 22}, {"rdma", true, 1 << 21}} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := freqConfig(window.SlidingPlan(5, 1), 1<<40, arm.rdma)
			cfg.Tracker = afr.TrackerConfig{BufferKeys: buffer, BloomBits: arm.bloomBits, BloomHashes: 3}
			cfg.CaptureValues = false
			cfg.Shards = 1
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := func(sw, i int) packet.FlowKey {
				n := uint32(sw*flows + i + 1)
				return packet.FlowKey{SrcIP: n, DstIP: 9, SrcPort: uint16(n), DstPort: 443, Proto: packet.ProtoTCP}
			}
			var (
				p           packet.Packet
				before, now runtime.MemStats
				tickBytes   uint64
				measured    int
			)
			sw := 0
			boundary := func() {
				for i := 0; i < flows; i++ {
					p = packet.Packet{Key: key(sw, i), Size: 100, Time: int64(sw)*100*ms + int64(i)}
					d.ProcessPacket(&p)
				}
				sw++
				runtime.ReadMemStats(&before)
				d.Tick(int64(sw) * 100 * ms)
				d.Tick(int64(sw)*100*ms + int64(d.cfg.Grace))
				runtime.ReadMemStats(&now)
				tickBytes += now.TotalAlloc - before.TotalAlloc
				measured++
			}
			for i := 0; i < warm; i++ {
				boundary()
			}
			tickBytes, measured = 0, 0
			total := testing.AllocsPerRun(runs, boundary)

			st := d.Stats()
			if st.AFRs != sw*flows || st.Spills != sw*(flows-buffer) || st.Retransmitted != 0 {
				t.Fatalf("not %d-AFR boundaries with %d spills each: %+v", flows, flows-buffer, st)
			}
			if arm.rdma && (st.ColdAFRs == 0 || st.FallbackAFRs != 0) {
				t.Fatalf("the RDMA transport did not carry the boundaries: %+v", st)
			}
			if got, want := len(d.Results()), sw-4; got != want {
				t.Fatalf("%d windows assembled over %d sub-windows, want %d", got, sw, want)
			}
			perAFR := total / flows
			bytesPerAFR := float64(tickBytes) / float64(measured*flows)
			t.Logf("boundary %.0f allocs: enumeration + delivery + finish %.3f allocs/AFR, %.1f B/AFR", total, perAFR, bytesPerAFR)
			if perAFR > 0.01 {
				t.Fatalf("the boundary allocates %.3f per AFR, want <= 0.01", perAFR)
			}
			if bytesPerAFR > 16 {
				t.Fatalf("the boundary allocates %.1f B per AFR, want <= 16", bytesPerAFR)
			}
		})
	}
}
