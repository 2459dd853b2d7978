package omniwindow

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/durable"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// Partition chaos: the hot-standby pair under network failures that do
// NOT kill the primary. The standby reads only the shared log, so all a
// partition can cut is the primary's lease renewals
// (faults.PartitionSchedule.Cut). The properties proven here are the
// partition failure doctrine:
//
//   - At most one term holder ever finalizes a window: a promotion
//     advances the fencing term by CAS before the standby reads the log,
//     the deposed primary's durable writes are rejected (ErrFenced), and
//     the boundaries it already emitted are suppressed on the promoted
//     controller — every (Start, End) span appears exactly once in
//     Results across the whole run.
//   - Zero post-fence WAL frames are accepted: replaying the log after
//     the run shows frame terms non-decreasing in LSN order, ending at
//     the final holder's term.
//   - The merged window stream is byte-identical to the fault-free run,
//     or explicitly Incomplete. A promotion rebuilds its controller from
//     the shared log, which the partition does not cut, so a takeover
//     over a healthy disk — spurious (one lost renewal) or after a long
//     outage — costs nothing; only records the log lacks
//     (TestFailoverWhileDegradedFinalizesOnce) surface as Missing-charged
//     spans, never as silently different values.

// partitionConfig is durableConfig plus the hot-standby pair and a
// partition schedule. The lease TTL is pinned between one and two
// sub-window lengths: long enough that the gap between construction-time
// arming and the first boundary renewal (~151 ms into the run) never
// lapses it on a healthy network, short enough that a single lost
// renewal is detected at the following boundary.
func partitionConfig(dir string, ps *faults.PartitionSchedule) Config {
	cfg := durableConfig(dir, nil)
	cfg.Standby = true
	cfg.Shards = 4
	cfg.plan.leaseTTL = 170 * time.Millisecond
	cfg.plan.partition = ps
	return cfg
}

// partitionTrace is chaosTrace generalized to n 100 ms sub-windows, for
// scenarios (re-failover after re-admission) that need a longer run.
func partitionTrace(n int64) []packet.Packet {
	var pkts []packet.Packet
	for swi := int64(0); swi < n; swi++ {
		at := swi*100*ms + 50*ms
		for f := 1; f <= 40; f++ {
			if (int64(f)+swi)%3 == 0 {
				continue
			}
			cnt := 3 + (f+int(swi)*7)%9
			for i := 0; i < cnt; i++ {
				pkts = append(pkts, packet.Packet{
					Key:  fk(f),
					Size: 100,
					Seq:  uint32(i),
					Time: at + int64(i)*ms,
				})
			}
		}
	}
	return pkts
}

// runPartition builds and runs one hot-standby deployment over n
// sub-windows of the partition trace.
func runPartition(t *testing.T, cfg Config, n int64) *Deployment {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(partitionTrace(n), n*100*ms)
	return d
}

// partitionBaseline is the fault-free (and durability-free) run over the
// same n-sub-window trace.
func partitionBaseline(t *testing.T, n int64) *Deployment {
	t.Helper()
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, false)
	cfg.plan.retry = fastRetry(4)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(partitionTrace(n), n*100*ms)
	return d
}

// assertSingleFinalizer fails if any (Start, End) span appears more than
// once — the duplicate a zombie primary and a promoted standby would
// both emit if fencing or suppression were broken.
func assertSingleFinalizer(t *testing.T, got []controller.WindowResult) {
	t.Helper()
	seen := make(map[[2]uint64]bool, len(got))
	for _, w := range got {
		k := [2]uint64{w.Start, w.End}
		if seen[k] {
			t.Fatalf("window [%d,%d] was finalized twice — two term holders emitted it", w.Start, w.End)
		}
		seen[k] = true
	}
}

// A zero-value schedule is a healthy network: no promotion, no fenced
// writes, no partition events — and the boundary-anchored lease probe
// must not misread the trailing-flush time jump as an outage.
func TestPartitionChaosHealthySchedule(t *testing.T) {
	baseline := partitionBaseline(t, 5)
	d := runPartition(t, partitionConfig(t.TempDir(), &faults.PartitionSchedule{Seed: 1}), 5)
	st := d.Stats()
	if st.Failovers != 0 || st.Demotions != 0 || st.FencedWrites != 0 || st.PartitionEvents != 0 {
		t.Fatalf("healthy schedule injected failures: %+v", st)
	}
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatal("healthy partition schedule changed the window stream")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionChaosSymmetricOutage: a sustained cut across boundaries
// 1–2 lapses the lease and promotes the standby at boundary 2 behind a
// fresh term. The log holds every boundary up to the in-flight one, so
// the takeover is exact: nothing is charged Missing or suppressed, and
// the stream stays byte-identical. After the partition heals, the
// demoted primary is re-admitted as the new standby. The spilling run
// carries the in-flight boundary's injected-key records through the log
// too.
func TestPartitionChaosSymmetricOutage(t *testing.T) {
	baseline := partitionBaseline(t, 5)
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			ps := &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{1, 2}}}
			cfg := partitionConfig(t.TempDir(), ps)
			if spill {
				chaosSpill(&cfg)
			}
			symmetricOutage(t, baseline, runPartition(t, cfg, 5))
		})
	}
}

func symmetricOutage(t *testing.T, baseline, d *Deployment) {
	t.Helper()
	st := d.Stats()
	if st.Failovers != 1 || st.Demotions != 1 {
		t.Fatalf("failovers=%d demotions=%d, want 1/1", st.Failovers, st.Demotions)
	}
	if st.FencedWrites < 2 {
		t.Fatalf("fenced writes = %d, want >= 2 (the zombie's finish + checkpoint)", st.FencedWrites)
	}
	if st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1 (partition healed at boundary 3)", st.Readmissions)
	}
	if d.term != 1 {
		t.Fatalf("term = %d, want 1 after one promotion", d.term)
	}
	if st.SuppressedWindows != 0 {
		t.Fatalf("suppressed %d windows, want 0: the log held every finished boundary", st.SuppressedWindows)
	}
	assertSingleFinalizer(t, d.Results())
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatal("the outage changed the window stream")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionChaosAsymmetric: losing every renewal of a live primary is
// the classic zombie-primary case — the standby promotes from the log a
// live primary keeps writing until the fence, so the spurious takeover is
// free. The cut never heals, so the demoted node is never re-admitted.
func TestPartitionChaosAsymmetric(t *testing.T) {
	baseline := partitionBaseline(t, 5)

	t.Run("renew-only", func(t *testing.T) {
		ps := &faults.PartitionSchedule{Cut: faults.Fault{Prob: 1}}
		d := runPartition(t, partitionConfig(t.TempDir(), ps), 5)
		st := d.Stats()
		if st.Failovers != 1 || st.Demotions != 1 {
			t.Fatalf("failovers=%d demotions=%d, want 1/1", st.Failovers, st.Demotions)
		}
		if st.FencedWrites < 2 {
			t.Fatalf("fenced writes = %d, want >= 2", st.FencedWrites)
		}
		assertSingleFinalizer(t, d.Results())
		if !reflect.DeepEqual(baseline.Results(), d.Results()) {
			t.Fatal("renewal-only cut changed the window stream")
		}
		if err := d.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPartitionFailoverKeepsSpikes: a renewal cut at boundary 0 promotes
// the standby at boundary 1, whose latency spikes (spikeTrace)
// the old primary merged in software and logged. The promoted controller
// must carry them: every window equals the standby-free durable run's,
// none marked Incomplete.
func TestPartitionFailoverKeepsSpikes(t *testing.T) {
	pkts := spikeTrace()
	baseline := newDisk(t, spikeConfig(t.TempDir()))
	baseline.RunFor(pkts, 500*ms)
	if err := baseline.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	cfg := spikeConfig(t.TempDir())
	cfg.Standby = true
	cfg.plan.leaseTTL = 170 * time.Millisecond
	cfg.plan.partition = &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{0}}}
	d := newDisk(t, cfg)
	d.RunFor(pkts, 500*ms)
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (the renewal cut at boundary 0)", st.Failovers)
	}
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatalf("the promotion lost a spike:\nstandby-free: %+v\npromoted:     %+v", baseline.Results(), d.Results())
	}
}

// TestPartitionChaosFlapping: random cuts with no structure.
// Whatever the schedule does — promotions, re-admissions, repeated
// outages — three invariants survive every seed: each span is finalized
// exactly once, every window is byte-identical or Incomplete, and the
// whole run is deterministic.
func TestPartitionChaosFlapping(t *testing.T) {
	baseline := partitionBaseline(t, 5)
	seeds := []uint64{1, 2, 3}
	// Nightly sweep: OMNIWINDOW_EXTRA_SEEDS widens the fixed table.
	seeds = append(seeds, faults.ExtraSeeds(6)...)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ps := &faults.PartitionSchedule{Seed: seed, Cut: faults.Fault{Prob: 0.6}}
			d := runPartition(t, partitionConfig(t.TempDir(), ps), 5)
			assertSingleFinalizer(t, d.Results())
			assertIdenticalOrIncomplete(t, baseline.Results(), d.Results())
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}

			d2 := runPartition(t, partitionConfig(t.TempDir(), ps), 5)
			if !reflect.DeepEqual(d.Results(), d2.Results()) {
				t.Fatal("same schedule, different window stream — partition handling is nondeterministic")
			}
			if d.Stats() != d2.Stats() {
				t.Fatalf("same schedule, different stats:\n%+v\n%+v", d.Stats(), d2.Stats())
			}
			if err := d2.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionRefailoverAfterReadmission: two separated outages on a
// longer run. The first promotes the standby and demotes the primary;
// re-admission returns the demoted node as the new standby; the second
// outage promotes IT — the roles swap back. Each promotion advances the
// term, and each rebuilds from a log that holds every finished boundary,
// so neither suppresses a window and the stream stays byte-identical.
func TestPartitionRefailoverAfterReadmission(t *testing.T) {
	const n = 9
	baseline := partitionBaseline(t, n)
	ps := &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{1, 2, 5, 6}}}
	d := runPartition(t, partitionConfig(t.TempDir(), ps), n)
	st := d.Stats()
	if st.Failovers != 2 || st.Demotions != 2 {
		t.Fatalf("failovers=%d demotions=%d, want 2/2", st.Failovers, st.Demotions)
	}
	if st.Readmissions < 2 {
		t.Fatalf("readmissions = %d, want 2 (one after each healed outage)", st.Readmissions)
	}
	if d.term != 2 {
		t.Fatalf("term = %d, want 2 after two promotions", d.term)
	}
	if st.SuppressedWindows != 0 {
		t.Fatalf("suppressed %d windows, want 0: the log held every finished boundary", st.SuppressedWindows)
	}
	if st.FencedWrites < 4 {
		t.Fatalf("fenced writes = %d, want >= 4 across two demotions", st.FencedWrites)
	}
	assertSingleFinalizer(t, d.Results())
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatal("two outages changed the window stream")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionZombieWALFenced: the durable log proves the fencing
// history. Reopening the store after a promoting run and replaying every
// frame shows terms non-decreasing in LSN order, ending at the promoted
// holder's term — no frame written under a stale term was ever accepted
// after the fence.
func TestPartitionZombieWALFenced(t *testing.T) {
	dir := t.TempDir()
	ps := &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{1, 2}}}
	d := runPartition(t, partitionConfig(dir, ps), 5)
	finalTerm := d.term
	if finalTerm != 1 {
		t.Fatalf("term = %d, want 1", finalTerm)
	}
	if d.Stats().FencedWrites < 2 {
		t.Fatal("the zombie's post-fence writes were not rejected")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	s, err := durable.OpenStore(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Term(); got != finalTerm {
		t.Fatalf("persisted term = %d, want %d", got, finalTerm)
	}
	snap, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil && snap.Term > finalTerm {
		t.Fatalf("checkpoint term %d exceeds the final holder's %d", snap.Term, finalTerm)
	}
	last := uint64(0)
	for i, r := range recs {
		if r.Term < last {
			t.Fatalf("frame %d: term %d after term %d — a stale-term frame was accepted post-fence", i, r.Term, last)
		}
		if r.Term > finalTerm {
			t.Fatalf("frame %d carries term %d beyond the final holder's %d", i, r.Term, finalTerm)
		}
		last = r.Term
	}
}

// TestPartitionScrapeDuringRun: scraping a live hot-standby pair is safe.
// A goroutine renders the registry in a loop — what owtop polling the debug
// endpoint does — while the run promotes, demotes and re-admits; under
// -race nothing the scrape reads may be a plain field the run is writing.
// Afterwards the failover families equal Stats().
func TestPartitionScrapeDuringRun(t *testing.T) {
	reg := obs.NewRegistry()
	ps := &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{3, 4, 5}}}
	cfg := partitionConfig(t.TempDir(), ps)
	cfg.Obs = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, scraped := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
				reg.WritePrometheus(io.Discard)
				n++
			}
		}
	}()
	d.RunFor(partitionTrace(10), 10*100*ms)
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("the run finished before a single scrape")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.Failovers == 0 || st.Demotions == 0 || st.Readmissions == 0 || st.PartitionEvents == 0 {
		t.Fatalf("the schedule did not promote, demote and re-admit: %+v", st)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	got := parseMetrics(t, &text)
	for name, want := range map[string]int{
		"omniwindow_failover_term":                     int(d.term),
		"omniwindow_failover_role":                     1, // promoted, the demoted node re-admitted
		"omniwindow_failover_demotions_total":          st.Demotions,
		"omniwindow_failover_readmissions_total":       st.Readmissions,
		"omniwindow_failover_partition_events_total":   st.PartitionEvents,
		"omniwindow_failover_suppressed_windows_total": st.SuppressedWindows,
	} {
		if v, ok := got[name]; !ok || int(v) != want {
			t.Errorf("%s = %v (present %v), want %d", name, v, ok, want)
		}
	}
}
