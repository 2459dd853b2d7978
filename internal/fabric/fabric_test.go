package fabric

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
	"omniwindow/internal/window"
)

const ms = trace.Millisecond

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstIP: 99, SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP}
}

// swConfig is one switch's frequency-query deployment.
func swConfig() omniwindow.Config {
	return omniwindow.Config{
		SubWindow: 100 * time.Millisecond,
		Plan:      window.Tumbling(5),
		Kind:      afr.Frequency,
		Threshold: 1,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, 4096, uint64(region+1)), 4096)
		},
		Slots:   4096,
		Tracker: afr.TrackerConfig{BufferKeys: 1024, BloomBits: 1 << 16, BloomHashes: 3},
	}
}

// steadyTrace emits count packets per flow, evenly spread over [0, dur).
func steadyTrace(flows []int, count int, dur int64) []packet.Packet {
	var pkts []packet.Packet
	step := dur / int64(count)
	var seq uint32
	for i := 0; i < count; i++ {
		for _, f := range flows {
			pkts = append(pkts, packet.Packet{
				Key: fk(f), Size: 100, Seq: seq, Time: int64(i)*step + int64(f),
			})
			seq++
		}
	}
	return pkts
}

// chain builds an n-switch linear fabric with the given per-switch fault
// schedules (nil entries are healthy).
func chain(t testing.TB, n int, scheds []*faults.SwitchSchedule, mutate func(*Config)) *Fabric {
	t.Helper()
	cfg := Config{LinkDelay: 30 * ms}
	for i := 0; i < n; i++ {
		sc := SwitchConfig{Config: swConfig()}
		if scheds != nil {
			sc.Faults = scheds[i]
		}
		cfg.Switches = append(cfg.Switches, sc)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// contentEqual compares the telemetry content of two merged windows (span,
// detected flows, per-flow values) — the "byte-identical" criterion.
func contentEqual(a, b Window) bool {
	if a.Start != b.Start || a.End != b.End || len(a.Values) != len(b.Values) {
		return false
	}
	if !reflect.DeepEqual(a.Detected, b.Detected) {
		return false
	}
	for k, v := range a.Values {
		if b.Values[k] != v {
			return false
		}
	}
	return true
}

func describe(w Window) string {
	return fmt.Sprintf("[%d..%d] degraded=%v switches=%v gaps=%v values=%d",
		w.Start, w.End, w.Degraded, w.DegradedSwitches, w.Gaps, len(w.Values))
}

// TestFabricConsistency is the network-wide consistency test ported onto
// the fabric: two chained switches behind a link delay most of a
// sub-window long must produce identical per-window per-flow counts, and
// the merged fabric windows must equal either one's.
func TestFabricConsistency(t *testing.T) {
	f := chain(t, 2, nil, func(c *Config) { c.LinkDelay = 70 * ms })
	pkts := steadyTrace([]int{1, 2, 3}, 60, 500*ms)
	merged := f.Run(pkts)

	up := f.Node(0).Results()
	down := f.Node(1).Results()
	if len(up) == 0 || len(up) != len(down) {
		t.Fatalf("window counts differ: %d vs %d", len(up), len(down))
	}
	for i := range up {
		if up[i].Start != down[i].Start || up[i].End != down[i].End {
			t.Fatalf("window %d ranges differ", i)
		}
		for k, v := range up[i].Values {
			if down[i].Values[k] != v {
				t.Fatalf("window %d key %v: upstream %d downstream %d — consistency broken",
					i, k, v, down[i].Values[k])
			}
		}
	}
	if len(merged) != len(up) {
		t.Fatalf("merged windows = %d, per-switch = %d", len(merged), len(up))
	}
	for i, w := range merged {
		if w.Degraded || len(w.DegradedSwitches) != 0 {
			t.Fatalf("fault-free window marked degraded: %s", describe(w))
		}
		for k, v := range up[i].Values {
			if w.Values[k] != v {
				t.Fatalf("merged window %d key %v: %d want %d", i, k, w.Values[k], v)
			}
		}
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// runPair runs the same trace through a faulty fabric and a fault-free
// reference of the same shape and returns both window lists.
func runPair(t *testing.T, n int, scheds []*faults.SwitchSchedule, mutate func(*Config), pkts []packet.Packet) (got, ref []Window, f *Fabric) {
	t.Helper()
	f = chain(t, n, scheds, mutate)
	clean := chain(t, n, nil, mutate)
	got = f.Run(append([]packet.Packet(nil), pkts...))
	ref = clean.Run(append([]packet.Packet(nil), pkts...))
	if v := clean.Violations(); len(v) != 0 {
		t.Fatalf("fault-free violations: %v", v)
	}
	return got, ref, f
}

// checkDegradedOrIdentical asserts the acceptance invariant: every merged
// window is byte-identical to the fault-free run, or explicitly marked
// degraded with the failed switch's coverage gap. It returns the number
// of degraded windows.
func checkDegradedOrIdentical(t *testing.T, got, ref []Window, failed int) int {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("window counts: %d vs fault-free %d", len(got), len(ref))
	}
	degraded := 0
	for i := range got {
		if contentEqual(got[i], ref[i]) && !got[i].Degraded {
			continue
		}
		if !got[i].Degraded {
			t.Fatalf("window %d differs from fault-free but is not marked degraded:\n%s\nvs\n%s",
				i, describe(got[i]), describe(ref[i]))
		}
		degraded++
		found := false
		for _, s := range got[i].DegradedSwitches {
			if s == failed {
				found = true
			}
		}
		if !found {
			t.Fatalf("window %d degraded but does not name switch %d: %s", i, failed, describe(got[i]))
		}
		gapFound := false
		for _, g := range got[i].Gaps {
			if g.Switch == failed && g.From <= got[i].End && g.To >= got[i].Start {
				gapFound = true
			}
		}
		if !gapFound {
			t.Fatalf("window %d lacks switch %d's coverage gap: %s", i, failed, describe(got[i]))
		}
		// No silent undercounting — degraded values are lower bounds.
		for k, v := range got[i].Values {
			if v > ref[i].Values[k] {
				t.Fatalf("window %d key %v overcounts: %d > fault-free %d", i, k, v, ref[i].Values[k])
			}
		}
	}
	return degraded
}

// TestFabricChaosRebootMiddle reboots the middle switch of a 3-switch
// chain: its wiped regions lose data, but the route's stamping switch is
// healthy and saw every packet, so every merged window stays byte-identical
// to the fault-free run — the reboot is absorbed, not surfaced.
func TestFabricChaosRebootMiddle(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3, 4}, 120, 1000*ms)
	scheds := []*faults.SwitchSchedule{
		nil,
		{Reboot: faults.Fault{Fixed: []uint64{3, 7}}},
		nil,
	}
	got, ref, f := runPair(t, 3, scheds, nil, pkts)

	if f.Node(1).Stats().Reboots != 2 {
		t.Fatalf("middle switch reboots = %d want 2", f.Node(1).Stats().Reboots)
	}
	if len(got) != len(ref) {
		t.Fatalf("window counts: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		if !contentEqual(got[i], ref[i]) {
			t.Fatalf("window %d not identical despite healthy origin:\n%s\nvs\n%s",
				i, describe(got[i]), describe(ref[i]))
		}
		if got[i].Degraded {
			t.Fatalf("window %d degraded despite full route coverage: %s", i, describe(got[i]))
		}
	}
	if len(f.Gaps(1)) == 0 {
		t.Fatal("middle switch's wiped state left no recorded gap")
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricChaosRebootOrigin reboots the stamping switch of a 3-switch
// chain without beacons: its post-reboot stamps carry epoch 0 and every
// downstream switch must reject them (never monitor), the affected windows
// must be explicitly marked degraded with switch 0's coverage gap, and
// windows outside the gap must be byte-identical to the fault-free run.
func TestFabricChaosRebootOrigin(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3, 4}, 240, 2000*ms)
	scheds := []*faults.SwitchSchedule{
		{Reboot: faults.Fault{Fixed: []uint64{7}}},
		nil,
		nil,
	}
	got, ref, f := runPair(t, 3, scheds, nil, pkts)

	degraded := checkDegradedOrIdentical(t, got, ref, 0)
	if degraded == 0 {
		t.Fatal("origin reboot degraded no window")
	}
	if degraded == len(got) {
		t.Fatal("every window degraded — the fault did not stay contained")
	}
	if f.Node(1).Stats().StaleEpochStamps == 0 {
		t.Fatal("downstream switch never saw (and rejected) a stale-epoch stamp")
	}
	if f.Node(1).Stats().SubWindows == 0 {
		t.Fatal("downstream switch collected nothing")
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("stale-stamp invariant violated: %v", v)
	}
}

// TestFabricChaosSeededReboots is the full chaos sweep: seeded
// probabilistic reboot schedules on all three switches across several
// seeds. Whatever the schedule does, every merged window must be
// byte-identical to the fault-free run or explicitly marked degraded with
// the failed switch's gap, and no stale-epoch stamp may ever be monitored.
func TestFabricChaosSeededReboots(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3, 4, 5}, 240, 2000*ms)
	// Nightly sweep: OMNIWINDOW_EXTRA_SEEDS appends derived seeds to the
	// fixed 1..5 table.
	seeds := append([]uint64{1, 2, 3, 4, 5}, faults.ExtraSeeds(3)...)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			scheds := []*faults.SwitchSchedule{
				{Seed: seed, Reboot: faults.Fault{Prob: 0.12}},
				{Seed: seed + 100, Reboot: faults.Fault{Prob: 0.12}},
				{Seed: seed + 200, Reboot: faults.Fault{Prob: 0.12}},
			}
			got, ref, f := runPair(t, 3, scheds, nil, pkts)
			if len(got) != len(ref) {
				t.Fatalf("window counts: %d vs %d", len(got), len(ref))
			}
			for i := range got {
				if contentEqual(got[i], ref[i]) {
					continue
				}
				if !got[i].Degraded || len(got[i].Gaps) == 0 {
					t.Fatalf("window %d differs but is not marked degraded with a gap:\n%s\nvs\n%s",
						i, describe(got[i]), describe(ref[i]))
				}
				for k, v := range got[i].Values {
					if v > ref[i].Values[k] {
						t.Fatalf("window %d key %v overcounts: %d > %d", i, k, v, ref[i].Values[k])
					}
				}
			}
			if v := f.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

// TestFabricBeaconsHealReboot: with controller beacons the rebooted origin
// resyncs at the very boundary it died on, so no stale stamp ever reaches
// a downstream switch and only the windows overlapping the wiped state are
// degraded.
func TestFabricBeaconsHealReboot(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3}, 240, 2000*ms)
	scheds := []*faults.SwitchSchedule{
		{Reboot: faults.Fault{Fixed: []uint64{7}}},
		nil,
		nil,
	}
	beacons := func(c *Config) { c.Beacons = true }
	got, ref, f := runPair(t, 3, scheds, beacons, pkts)

	if n := f.Node(1).Stats().StaleEpochStamps; n != 0 {
		t.Fatalf("beacons enabled but %d stale stamps reached downstream", n)
	}
	degraded := checkDegradedOrIdentical(t, got, ref, 0)
	if degraded == 0 {
		t.Fatal("wiped state degraded no window")
	}
	if degraded > 2 {
		t.Fatalf("beacon resync should contain the damage, got %d degraded windows", degraded)
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricQuarantine: an unsynced origin keeps emitting stale stamps;
// after StrikeLimit strikes the controller quarantines it, the next switch
// takes over stamping, and after QuarantineFor sub-windows the switch is
// resynced and readmitted with a clean slate.
func TestFabricQuarantine(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3}, 300, 3000*ms)
	scheds := []*faults.SwitchSchedule{
		{Reboot: faults.Fault{Fixed: []uint64{5}}},
		nil,
		nil,
	}
	mutate := func(c *Config) { c.StrikeLimit = 3; c.QuarantineFor = 4 }
	got, ref, f := runPair(t, 3, scheds, mutate, pkts)

	if f.Quarantined(0) {
		t.Fatal("switch 0 still quarantined at the end of the run")
	}
	var sawQuarantineGap bool
	for _, g := range f.Gaps(0) {
		if g.To > g.From {
			sawQuarantineGap = true
		}
	}
	if !sawQuarantineGap {
		t.Fatalf("no quarantine gap recorded for switch 0: %v", f.Gaps(0))
	}
	if f.Strikes(0) != 0 {
		t.Fatalf("strikes not reset after readmission: %d", f.Strikes(0))
	}
	degraded := checkDegradedOrIdentical(t, got, ref, 0)
	if degraded == 0 || degraded == len(got) {
		t.Fatalf("quarantine should degrade some but not all windows, got %d/%d", degraded, len(got))
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricStallStrikes: a switch that repeatedly misses its collection
// deadline accrues strikes and is quarantined even though it never loses
// data outright.
func TestFabricStallStrikes(t *testing.T) {
	pkts := steadyTrace([]int{1, 2}, 200, 2000*ms)
	scheds := []*faults.SwitchSchedule{
		nil,
		{Stall: faults.Fault{Fixed: []uint64{2, 3, 4}}},
	}
	f := chain(t, 2, scheds, func(c *Config) { c.StrikeLimit = 3 })
	f.Run(pkts)

	if len(f.Gaps(1)) == 0 {
		t.Fatal("stalled switch was never quarantined")
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricClockDrift: a drifting clock on a non-stamping switch is fully
// absorbed by the consistency model — downstream monitoring is driven by
// the embedded stamp, not the local clock — so merged windows are
// byte-identical to a drift-free run.
func TestFabricClockDrift(t *testing.T) {
	pkts := steadyTrace([]int{1, 2, 3}, 120, 1000*ms)
	scheds := []*faults.SwitchSchedule{
		nil,
		{ClockDriftPerSub: -3 * ms}, // 3 ms slow per sub-window
	}
	got, ref, f := runPair(t, 2, scheds, nil, pkts)
	for i := range got {
		if !contentEqual(got[i], ref[i]) || got[i].Degraded {
			t.Fatalf("drift leaked into window %d:\n%s\nvs\n%s", i, describe(got[i]), describe(ref[i]))
		}
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricSpikeExactlyOnce drives a latency-spike packet — stamped so
// long ago that no region preserves its sub-window — through a 2-switch
// chain, with the same copy delivered twice: each switch's controller must
// merge it exactly once into the stamped sub-window.
func TestFabricSpikeExactlyOnce(t *testing.T) {
	f := chain(t, 2, nil, func(c *Config) {
		for i := range c.Switches {
			c.Switches[i].Config.Grace = 350 * time.Millisecond
		}
	})
	pkts := steadyTrace([]int{1, 2}, 80, 600*ms)
	for i := range pkts {
		if pkts[i].Time > 290*ms {
			// A severely delayed packet stamped in sub-window 0 (epoch 1)
			// arrives while the switches are in sub-window 2 — with
			// sub-window 0's collection still pending thanks to the long
			// grace — and a duplicate follows. The rest of the trace then
			// pushes the fabric past sub-window 4 so the first window
			// assembles.
			spike := packet.Packet{
				Key: fk(9), Seq: 7777, Size: 100, Time: 290 * ms,
				OW: packet.OWHeader{SubWindow: 0, HasSubWindow: true, Epoch: 1},
			}
			dup := spike
			f.Process(&spike)
			f.Process(&dup)
			for ; i < len(pkts); i++ {
				f.Process(&pkts[i])
			}
			break
		}
		f.Process(&pkts[i])
	}
	spike := packet.Packet{
		Key: fk(9), Seq: 7777, Size: 100, Time: 290 * ms,
		OW: packet.OWHeader{SubWindow: 0, HasSubWindow: true, Epoch: 1},
	}

	for i := 0; i < 2; i++ {
		if got := f.Node(i).Stats().Spikes; got != 2 {
			t.Fatalf("switch %d spike copies = %d want 2", i, got)
		}
		if got := f.Node(i).Stats().SpikesMerged; got != 1 {
			t.Fatalf("switch %d merged %d spike copies, want exactly 1", i, got)
		}
	}
	// A third copy pushed straight at a controller must also be refused.
	if f.Node(0).Controller().IngestSpike(spike.Clone(), 1) {
		t.Fatal("controller merged the same spike copy twice")
	}

	windows := f.Finalize()
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	w := windows[0]
	if w.Start != 0 {
		t.Fatalf("first window starts at %d", w.Start)
	}
	if w.Values[fk(9)] != 1 {
		t.Fatalf("spike flow value = %d want 1 (merged exactly once)", w.Values[fk(9)])
	}
	if w.SpikePackets != 2 { // one merge per switch controller
		t.Fatalf("window SpikePackets = %d want 2", w.SpikePackets)
	}
	if obs := f.SpikeObservations(); obs[0] != 1 || obs[1] != 1 {
		t.Fatalf("spike observations = %v want one distinct copy per switch", obs)
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestFabricRaceFreeUnderRace exists so `go test -race ./internal/fabric`
// exercises the full chaos path under the race detector (the CI chaos job
// runs the whole package with -race; this test just makes the dependency
// explicit).
func TestFabricRaceFreeUnderRace(t *testing.T) {
	pkts := steadyTrace([]int{1, 2}, 60, 500*ms)
	scheds := []*faults.SwitchSchedule{
		{Reboot: faults.Fault{Fixed: []uint64{2}}},
		nil,
	}
	f := chain(t, 2, scheds, nil)
	f.Run(pkts)
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
