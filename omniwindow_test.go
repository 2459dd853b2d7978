package omniwindow

import (
	"reflect"
	"testing"
	"time"

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

// burstTrace emits `count` packets for each listed flow centered at the
// given times.
func burstTrace(bursts map[int64][]int, count int) []packet.Packet {
	var pkts []packet.Packet
	for at, flows := range bursts {
		for _, f := range flows {
			for i := 0; i < count; i++ {
				pkts = append(pkts, packet.Packet{
					Key:  fk(f),
					Size: 100,
					Seq:  uint32(i),
					Time: at + int64(i)*((90*ms)/int64(count)) - 45*ms,
				})
			}
		}
	}
	// sort by time
	for i := 1; i < len(pkts); i++ {
		for j := i; j > 0 && pkts[j].Time < pkts[j-1].Time; j-- {
			pkts[j], pkts[j-1] = pkts[j-1], pkts[j]
		}
	}
	return pkts
}

func freqConfig(plan window.Plan, threshold uint64, rdmaMode bool) Config {
	return Config{
		SubWindow: 100 * time.Millisecond,
		Plan:      plan,
		Kind:      afr.Frequency,
		Threshold: threshold,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, 4096, uint64(region+1)), 4096)
		},
		Slots:         4096,
		Tracker:       afr.TrackerConfig{BufferKeys: 1024, BloomBits: 1 << 16, BloomHashes: 3},
		CaptureValues: true,
		RDMA:          rdmaMode,
	}
}

func TestConfigValidation(t *testing.T) {
	base := freqConfig(window.Tumbling(5), 10, false)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sub-window", func(c *Config) { c.SubWindow = 0 }},
		{"empty plan", func(c *Config) { c.Plan = window.Plan{} }},
		{"nil app factory", func(c *Config) { c.AppFactory = nil }},
		{"app factory returns nil", func(c *Config) { c.AppFactory = func(int) afr.StateApp { return nil } }},
		{"zero slots", func(c *Config) { c.Slots = 0 }},
		{"slot mismatch", func(c *Config) { c.Slots = 100 }}, // app built 4096
		{"standby without checkpoint directory", func(c *Config) { c.Standby = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestConfigHasNoFaultSchedules: faults are injected through the
// in-package test plan, never through the public configuration. No
// exported Config field carries a type from internal/faults — directly,
// behind pointers, or as what an interface field's methods return.
func TestConfigHasNoFaultSchedules(t *testing.T) {
	fromFaults := func(ty reflect.Type) bool {
		for ty.Kind() == reflect.Pointer {
			ty = ty.Elem()
		}
		return ty.PkgPath() == "omniwindow/internal/faults"
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if !f.IsExported() {
			continue
		}
		bad := fromFaults(f.Type)
		if f.Type.Kind() == reflect.Interface {
			for i := 0; i < f.Type.NumMethod(); i++ {
				m := f.Type.Method(i).Type
				for o := 0; o < m.NumOut(); o++ {
					bad = bad || fromFaults(m.Out(o))
				}
			}
		}
		if bad {
			t.Errorf("Config.%s (%v) is a fault schedule: inject it through the test plan", f.Name, f.Type)
		}
	}
}

func TestTumblingMergesSubWindowBursts(t *testing.T) {
	// Flow 1 bursts in sub-windows 0 and 1 of the same 500 ms window
	// (60+80 packets, threshold 100): only the merged window sees it —
	// the §4.1 motivating example.
	pkts := append(burstTrace(map[int64][]int{50 * ms: {1}}, 60),
		burstTrace(map[int64][]int{150 * ms: {1}}, 80)...)
	d, err := New(freqConfig(window.Tumbling(5), 100, false))
	if err != nil {
		t.Fatal(err)
	}
	results := d.RunFor(pkts, 500*ms)
	if len(results) != 1 {
		t.Fatalf("windows = %d", len(results))
	}
	if len(results[0].Detected) != 1 || results[0].Detected[0] != fk(1) {
		t.Fatalf("detected = %v", results[0].Detected)
	}
	if got := results[0].Values[fk(1)]; got != 140 {
		t.Fatalf("merged value = %d want 140", got)
	}
	if err := d.assertConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingCatchesBoundaryBurst(t *testing.T) {
	// Figure 1: a burst straddling the 500 ms tumbling boundary. The
	// tumbling deployment misses it; the sliding one reports it.
	pkts := append(burstTrace(map[int64][]int{460 * ms: {1}}, 60),
		burstTrace(map[int64][]int{540 * ms: {1}}, 60)...)

	dt, _ := New(freqConfig(window.Tumbling(5), 100, false))
	tumbling := dt.RunFor(pkts, 1000*ms)
	for _, w := range tumbling {
		if len(w.Detected) != 0 {
			t.Fatalf("tumbling window [%d,%d] should miss the boundary burst: %v (values %v)",
				w.Start, w.End, w.Detected, w.Values)
		}
	}

	ds, _ := New(freqConfig(window.SlidingPlan(5, 1), 100, false))
	sliding := ds.RunFor(pkts, 1000*ms)
	found := false
	for _, w := range sliding {
		for _, k := range w.Detected {
			if k == fk(1) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("sliding window missed the boundary burst")
	}
}

// TestSubsamplingPlanMatchesGroundTruth: Sliding(2, 4) reports windows
// [0,1], [4,5], [8,9] and nothing of the sub-windows between them. Every
// flow sends in every sub-window, so a contribution leaking out of an
// uncovered sub-window into the next window (what the controller did
// before Plan.Covers) shows up as an over-count against the exact
// per-window packet counts.
func TestSubsamplingPlanMatchesGroundTruth(t *testing.T) {
	const (
		flows      = 20
		subWindows = 12
	)
	var pkts []packet.Packet
	truth := map[uint64]map[packet.FlowKey]uint64{} // window start -> flow -> packets
	plan := Sliding(2, 4)
	for sw := 0; sw < subWindows; sw++ {
		for f := 1; f <= flows; f++ {
			n := 1 + (sw+f)%4
			for i := 0; i < n; i++ {
				pkts = append(pkts, packet.Packet{Key: fk(f), Size: 100, Time: int64(sw)*100*ms + int64(f*4+i)*ms/10})
			}
			if plan.Covers(uint64(sw)) {
				start := uint64(sw - sw%plan.Slide)
				if truth[start] == nil {
					truth[start] = map[packet.FlowKey]uint64{}
				}
				truth[start][fk(f)] += uint64(n)
			}
		}
	}
	d, err := New(freqConfig(plan, 6, false))
	if err != nil {
		t.Fatal(err)
	}
	results := d.RunFor(pkts, subWindows*100*ms)
	if len(results) != 3 {
		t.Fatalf("windows = %d, want [0,1] [4,5] [8,9]", len(results))
	}
	for i, w := range results {
		if w.Start != uint64(4*i) || w.End != uint64(4*i+1) || w.Incomplete {
			t.Fatalf("window %d is [%d,%d] incomplete=%v", i, w.Start, w.End, w.Incomplete)
		}
		want := truth[w.Start]
		if len(w.Values) != len(want) {
			t.Fatalf("window [%d,%d] has %d flows, want %d", w.Start, w.End, len(w.Values), len(want))
		}
		detected := 0
		for k, v := range want {
			if w.Values[k] != v {
				t.Fatalf("window [%d,%d] flow %v = %d, ground truth %d", w.Start, w.End, k, w.Values[k], v)
			}
			if v >= 6 {
				detected++
			}
		}
		if len(w.Detected) != detected {
			t.Fatalf("window [%d,%d] detected %d flows, ground truth %d", w.Start, w.End, len(w.Detected), detected)
		}
	}
	if n := d.Controller().TableSize(); n != 0 {
		t.Fatalf("%d flows left in the table after the last window", n)
	}
	if err := d.assertConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestSpilledKeysAreStillCollected(t *testing.T) {
	// Flowkey buffer of 8: most keys spill to the controller, but every
	// flow must still appear in the merged window.
	cfg := freqConfig(window.Tumbling(1), 1, false)
	cfg.Tracker = afr.TrackerConfig{BufferKeys: 8, BloomBits: 1 << 16, BloomHashes: 3}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	pkts := burstTrace(map[int64][]int{50 * ms: flows}, 10)
	results := d.RunFor(pkts, 100*ms)
	if d.Stats().Spills == 0 {
		t.Fatal("test premise: keys should spill")
	}
	if len(results) == 0 {
		t.Fatal("no windows")
	}
	got := map[packet.FlowKey]uint64{}
	for _, w := range results {
		for k, v := range w.Values {
			got[k] += v
		}
	}
	for _, f := range flows {
		if got[fk(f)] != 10 {
			t.Fatalf("flow %d merged value = %d want 10", f, got[fk(f)])
		}
	}
}

func TestRDMAModeMatchesPacketMode(t *testing.T) {
	pkts := burstTrace(map[int64][]int{
		50 * ms:  {1, 2, 3},
		150 * ms: {1, 2, 4},
		250 * ms: {1, 5},
		350 * ms: {1, 2},
		450 * ms: {1, 6},
	}, 20)

	dPkt, _ := New(freqConfig(window.Tumbling(5), 1, false))
	dRDMA, _ := New(freqConfig(window.Tumbling(5), 1, true))
	rPkt := dPkt.RunFor(pkts, 500*ms)
	rRDMA := dRDMA.RunFor(pkts, 500*ms)
	if len(rPkt) != len(rRDMA) {
		t.Fatalf("window counts differ: %d vs %d", len(rPkt), len(rRDMA))
	}
	for i := range rPkt {
		for k, v := range rPkt[i].Values {
			if rRDMA[i].Values[k] != v {
				t.Fatalf("window %d key %v: packet=%d rdma=%d", i, k, v, rRDMA[i].Values[k])
			}
		}
	}
	st := dRDMA.Stats()
	if st.HotAFRs == 0 {
		t.Fatalf("hot path never used: %+v", st)
	}
}

// everyThird is an AFR fault schedule by emission index: it drops AFR
// emissions 0, 3, 6, ... (one key's records, or one retransmit packet) and
// hands the rest to the seeded schedule behind it, if any. A pattern drop
// consumes no draw of that schedule.
type everyThird struct {
	n    int
	next interface{ Packet() faults.PacketAction }
}

func (e *everyThird) Packet() faults.PacketAction {
	e.n++
	switch {
	case e.n%3 == 1:
		return faults.PacketAction{Drop: true}
	case e.next != nil:
		return e.next.Packet()
	}
	return faults.PacketAction{}
}

func TestReliabilityRetransmission(t *testing.T) {
	// Drop some AFR packets between switch and controller; the sequence
	// check must recover them.
	cfg := freqConfig(window.Tumbling(1), 1, false)
	cfg.plan.afrFaults = &everyThird{}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := burstTrace(map[int64][]int{50 * ms: {1, 2, 3, 4, 5, 6}}, 5)
	results := d.RunFor(pkts, 100*ms)
	if d.Stats().Retransmitted == 0 {
		t.Fatal("no retransmissions despite loss")
	}
	got := map[packet.FlowKey]uint64{}
	for _, w := range results {
		for k, v := range w.Values {
			got[k] += v
		}
	}
	for f := 1; f <= 6; f++ {
		if got[fk(f)] != 5 {
			t.Fatalf("flow %d value = %d want 5 (loss not recovered)", f, got[fk(f)])
		}
	}
}

// TestSpilledKeyLossIsRecovered: the AFRs of keys that overflowed the
// flowkey array carry sequence numbers from the tracked key count on. One
// lost in flight must be NACKed and recovered like any other; a window may
// never come out short without saying so.
func TestSpilledKeyLossIsRecovered(t *testing.T) {
	flows := make([]int, 30)
	for i := range flows {
		flows[i] = i + 1
	}
	pkts := burstTrace(map[int64][]int{50 * ms: flows, 150 * ms: flows}, 3)
	run := func(afrFaults interface{ Packet() faults.PacketAction }) *Deployment {
		cfg := freqConfig(window.Tumbling(1), 1, false)
		cfg.Tracker = afr.TrackerConfig{BufferKeys: 20, BloomBits: 1 << 16, BloomHashes: 3}
		cfg.plan.afrFaults = afrFaults
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.RunFor(pkts, 200*ms)
		return d
	}
	clean, lossy := run(nil), run(&everyThird{})
	if st := lossy.Stats(); st.Spills == 0 || st.Retransmitted == 0 {
		t.Fatalf("test premise: keys spill and AFRs are lost: %+v", st)
	}
	for i, w := range lossy.Results() {
		if !w.Incomplete && !reflect.DeepEqual(w, clean.Results()[i]) {
			t.Errorf("window [%d,%d] is short and unflagged: %d flows, fault-free %d",
				w.Start, w.End, len(w.Values), len(clean.Results()[i].Values))
		}
	}
	if !reflect.DeepEqual(clean.Results(), lossy.Results()) {
		t.Error("the lossy run did not recover to the fault-free windows")
	}
}

func TestStatsAndVirtualTimeBudget(t *testing.T) {
	gen := trace.New(trace.Config{Seed: 3, Flows: 4000, Duration: 1000 * ms})
	pkts := gen.Generate()
	cfg := freqConfig(window.Tumbling(5), 50, false)
	cfg.Tracker = afr.TrackerConfig{BufferKeys: 4096, BloomBits: 1 << 18, BloomHashes: 3}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(pkts, 1000*ms)
	st := d.Stats()
	if st.Packets != len(pkts) {
		t.Fatalf("packets = %d want %d", st.Packets, len(pkts))
	}
	if st.SubWindows < 9 {
		t.Fatalf("sub-windows = %d", st.SubWindows)
	}
	if st.AFRs == 0 || st.RecircPasses == 0 {
		t.Fatalf("collection did not run: %+v", st)
	}
	// The §6 invariant: C&R completes within a sub-window, so two
	// regions suffice.
	if st.MaxCollectVirtual > 100*time.Millisecond {
		t.Fatalf("C&R too slow: %v", st.MaxCollectVirtual)
	}
	if err := d.assertConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestUserDefinedSignalWindows(t *testing.T) {
	// Packets carry iteration numbers; windows follow them (Exp#3).
	cfg := freqConfig(window.Tumbling(1), 1, false)
	cfg.Signal = window.UserSignal{}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	for iter := uint64(0); iter < 3; iter++ {
		for i := 0; i < 10; i++ {
			pkts = append(pkts, packet.Packet{
				Key:  fk(1),
				Size: 100,
				Time: int64(iter)*10*ms + int64(i)*ms/2,
				OW:   packet.OWHeader{UserSignal: iter, HasUserSignal: true},
			})
		}
	}
	results := d.Run(pkts)
	if len(results) != 3 {
		t.Fatalf("windows = %d want 3 (one per iteration)", len(results))
	}
	for i, w := range results {
		if w.Values[fk(1)] != 10 {
			t.Fatalf("iteration %d count = %d", i, w.Values[fk(1)])
		}
	}
}

func TestIdleGapProducesEmptyWindows(t *testing.T) {
	// Traffic in sub-window 0, then silence until sub-window 9: the gap
	// windows must exist (empty), and no stale region state may leak.
	pkts := append(burstTrace(map[int64][]int{50 * ms: {1}}, 20),
		burstTrace(map[int64][]int{950 * ms: {2}}, 20)...)
	d, _ := New(freqConfig(window.Tumbling(2), 1, false))
	results := d.Run(pkts)
	if len(results) < 5 {
		t.Fatalf("windows = %d want >= 5", len(results))
	}
	for _, w := range results {
		if w.Start >= 2 && w.End <= 7 && len(w.Detected) != 0 {
			t.Fatalf("idle window [%d,%d] detected %v", w.Start, w.End, w.Detected)
		}
	}
	// First window has flow 1 only; last has flow 2 only.
	if results[0].Values[fk(1)] != 20 || results[0].Values[fk(2)] != 0 {
		t.Fatalf("first window values: %v", results[0].Values)
	}
	last := results[len(results)-1]
	if last.Values[fk(2)] != 20 || last.Values[fk(1)] != 0 {
		t.Fatalf("last window values: %v", last.Values)
	}
}

func TestResourceLedgerHasAllFeatures(t *testing.T) {
	d, _ := New(freqConfig(window.Tumbling(5), 1, true))
	ledger := d.Switch().Ledger()
	for _, feat := range []string{"Signal", "Consistency model", "Address location",
		"Flowkey tracking", "AFR generation", "RDMA opt.", "In-switch reset"} {
		r := ledger.Feature(feat)
		if r.Stages == 0 {
			t.Fatalf("feature %q not deployed: %+v", feat, r)
		}
	}
	total := ledger.Total()
	if total.SALUs == 0 || total.SRAMKB == 0 {
		t.Fatalf("ledger empty: %+v", total)
	}
}

func TestShardedDeploymentMatchesSequential(t *testing.T) {
	// The controller shard count must never change deployment results:
	// the same trace through Shards=1 and Shards=8 deployments yields
	// identical windows (detections and captured values).
	pkts := append(burstTrace(map[int64][]int{50 * ms: {1, 2, 3}, 250 * ms: {1, 4}}, 60),
		burstTrace(map[int64][]int{450 * ms: {1, 5}}, 80)...)

	run := func(shards int) []WindowResult {
		cfg := freqConfig(window.SlidingPlan(5, 1), 100, false)
		cfg.Shards = shards
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := d.RunFor(pkts, 700*ms)
		if err := d.assertConsistent(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sharded deployment diverged:\n seq %+v\n par %+v", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no windows produced")
	}
}
