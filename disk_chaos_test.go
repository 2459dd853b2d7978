package omniwindow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/wire"
)

// Disk chaos: the durability layer under a faulty medium. The properties
// proven here are the storage failure doctrine end to end:
//
//   - The live window stream NEVER changes: under any disk fault — or
//     with durable writes suspended entirely — emitted windows stay
//     byte-identical to the fault-free run. Disk trouble is visible only
//     in Stats (DurabilityGaps, QuarantinedSegments) and virtual IO time.
//   - After a crash-restart, every recovered window is either
//     byte-identical to the fault-free run's, or explicitly marked
//     Incomplete — damaged durable state degrades loudly, never silently.
//   - Recovered-vs-quarantined LSN accounting reconciles exactly: every
//     frame written before the crash is either replayed or inside a
//     reported Lost range, never both, never neither.

// diskConfig is durableConfig plus a disk fault schedule and a pinned
// shard count (op indexes must not depend on GOMAXPROCS).
func diskConfig(dir string, crash *faults.CrashSchedule, sched *faults.DiskSchedule) Config {
	cfg := durableConfig(dir, crash)
	cfg.Shards = 2
	cfg.DiskFaults = sched
	return cfg
}

// newDisk builds a deployment (running recovery if the directory holds
// durable state) without feeding it traffic.
func newDisk(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runDisk builds and runs one deployment over the full chaos trace.
func runDisk(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d := newDisk(t, cfg)
	d.RunFor(chaosTrace(), 500*ms)
	return d
}

// healthyOps measures how many filesystem operations a fault-free durable
// run issues, so ENOSPC stretches can be placed at run-relative positions
// (op counts vary with shard layout, never with the machine).
func healthyOps(t *testing.T) uint64 {
	t.Helper()
	d := runDisk(t, diskConfig(t.TempDir(), nil, &faults.DiskSchedule{}))
	ops := d.store.FSOps()
	if ops == 0 {
		t.Fatal("fault-free durable run issued no filesystem operations")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// opsFrom lists n consecutive operation indices from first: a full-disk
// stretch as the ENOSPC fault's Fixed inputs.
func opsFrom(first, n uint64) []uint64 {
	ops := make([]uint64, n)
	for i := range ops {
		ops[i] = first + uint64(i)
	}
	return ops
}

// assertIdenticalOrIncomplete checks every got window against the
// baseline window with the same span: byte-identical, or explicitly
// marked Incomplete. Returns how many were Incomplete.
func assertIdenticalOrIncomplete(t *testing.T, baseline, got []controller.WindowResult) int {
	t.Helper()
	byKey := make(map[[2]uint64]controller.WindowResult, len(baseline))
	for _, w := range baseline {
		byKey[[2]uint64{w.Start, w.End}] = w
	}
	incomplete := 0
	for _, w := range got {
		b, ok := byKey[[2]uint64{w.Start, w.End}]
		if !ok {
			t.Fatalf("window [%d,%d] has no fault-free counterpart", w.Start, w.End)
		}
		if reflect.DeepEqual(b, w) {
			continue
		}
		if !w.Incomplete {
			t.Fatalf("window [%d,%d] differs from fault-free run but is not marked Incomplete:\nfault-free: %+v\ngot:        %+v",
				w.Start, w.End, b, w)
		}
		incomplete++
	}
	return incomplete
}

// TestDiskChaosFaultFreeScheduleUnchanged: a zero-value DiskSchedule is a
// healthy disk — no faults fire, no retries burn, and the run is
// byte-identical to one without the fault seam at all.
func TestDiskChaosFaultFreeScheduleUnchanged(t *testing.T) {
	baseline := runChaos(t, nil)
	d := runDisk(t, diskConfig(t.TempDir(), nil, &faults.DiskSchedule{}))
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatal("fault-free DiskSchedule changed window results")
	}
	if d.store.WALErrors() != 0 || d.Stats().DurabilityGaps != 0 || d.DurabilityDegraded() {
		t.Fatalf("fault-free schedule recorded faults: walErrs=%d gaps=%d degraded=%v",
			d.store.WALErrors(), d.Stats().DurabilityGaps, d.DurabilityDegraded())
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosTransientFaultsByteIdentical: transient EIO/short-write/
// slow-IO faults under a generous retry budget never reach the window
// stream — retries absorb them, the windows match the fault-free run
// exactly, and the cost shows up only as retried writes and virtual IO
// time.
func TestDiskChaosTransientFaultsByteIdentical(t *testing.T) {
	baseline := runChaos(t, nil)
	seeds := []uint64{7, 21, 42}
	seeds = append(seeds, faults.ExtraSeeds(7)...)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := diskConfig(t.TempDir(), nil, &faults.DiskSchedule{
				Seed: seed, WriteEIO: 0.10, ShortWrite: 0.05, SlowIO: 0.10,
			})
			cfg.DurabilityRetryLimit = 10
			d := runDisk(t, cfg)
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatal("transient disk faults changed the live window stream")
			}
			if d.DurabilityDegraded() {
				t.Fatalf("retry budget 10 should absorb 10%% transient faults (gaps=%d)", d.Stats().DurabilityGaps)
			}
			if d.store.FSFaults() == 0 {
				t.Fatal("schedule injected no write faults — rates too low for the op count")
			}
			if d.Stats().CollectVirtual <= baseline.Stats().CollectVirtual {
				t.Fatal("retry backoff and slow-IO latency were not charged to virtual time")
			}
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskChaosENOSPCDegradesAndHeals: a bounded full-disk stretch flips
// the deployment to degraded durability — windows keep flowing
// byte-identical, skipped writes are counted as gaps — and the first
// boundary probe after space returns heals back to durable mode with a
// fresh checkpoint.
func TestDiskChaosENOSPCDegradesAndHeals(t *testing.T) {
	baseline := runChaos(t, nil)
	total := healthyOps(t)
	cfg := diskConfig(t.TempDir(), nil, &faults.DiskSchedule{
		// Once degraded, appends are skipped, so only the per-boundary
		// heal probe advances the op counter — keep the window tiny so
		// it closes within the remaining boundaries.
		ENOSPC: faults.Fault{Fixed: opsFrom(total*2/5, 2)},
	})
	d := runDisk(t, cfg)
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatal("degraded durability changed the live window stream")
	}
	st := d.Stats()
	if st.DurabilityGaps == 0 {
		t.Fatal("ENOSPC stretch did not trigger degraded mode (no gaps counted)")
	}
	if st.DurabilityHeals == 0 {
		t.Fatal("boundary probe never healed after the ENOSPC stretch ended")
	}
	if d.DurabilityDegraded() {
		t.Fatal("deployment still degraded after space returned")
	}
	if err := d.DurabilityErr(); err == nil {
		t.Fatal("first fault was not recorded as the audit-trail DurabilityErr")
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosCrashAfterHealByteIdentical: the heal checkpoint fully
// covers the degraded stretch, so a crash-restart AFTER healing recovers
// byte-identically — gaps that never met a crash cost nothing.
func TestDiskChaosCrashAfterHealByteIdentical(t *testing.T) {
	baseline := runChaos(t, nil)
	total := healthyOps(t)
	dir := t.TempDir()
	const crashAt = 3
	sched := &faults.DiskSchedule{
		// Tiny window: degraded mode issues ~1 probe op per boundary,
		// so the heal must land before the crash at sub-window 3.
		ENOSPC: faults.Fault{Fixed: opsFrom(total/5, 2)},
	}
	d1 := runDisk(t, diskConfig(dir, crashes(crashAt), sched))
	if sw, ok := d1.Crashed(); !ok || sw != crashAt {
		t.Fatalf("crash did not fire at %d: ok=%v sw=%d", crashAt, ok, sw)
	}
	st := d1.Stats()
	if st.DurabilityGaps == 0 || st.DurabilityHeals == 0 {
		t.Fatalf("scenario needs degrade+heal before the crash: gaps=%d heals=%d", st.DurabilityGaps, st.DurabilityHeals)
	}
	if d1.DurabilityDegraded() {
		t.Fatal("scenario needs the heal to land before the crash")
	}

	var combined []controller.WindowResult
	for _, w := range d1.Results() {
		if w.End <= crashAt {
			combined = append(combined, w)
		}
	}
	d2 := newDisk(t, diskConfig(dir, nil, &faults.DiskSchedule{}))
	d2.RunFor(traceTail(chaosTrace(), crashAt), 500*ms)
	combined = append(combined, d2.Results()...)
	if !reflect.DeepEqual(baseline.Results(), combined) {
		t.Fatalf("crash after heal not exactly recovered:\nfault-free: %+v\nstitched:   %+v",
			baseline.Results(), combined)
	}
	if err := d2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosCrashWhileDegraded: a crash INSIDE a degraded stretch is
// where gaps become damage. The boundaries after the last durable
// checkpoint cannot be replayed; the windows spanning them must come back
// explicitly Incomplete — and every other window byte-identical.
func TestDiskChaosCrashWhileDegraded(t *testing.T) {
	baseline := runChaos(t, nil)
	total := healthyOps(t)
	dir := t.TempDir()
	const crashAt = 3
	sched := &faults.DiskSchedule{
		// More operations than the rest of the run issues: the disk never
		// frees up.
		ENOSPC: faults.Fault{Fixed: opsFrom(total/4, total)},
	}
	d1 := runDisk(t, diskConfig(dir, crashes(crashAt), sched))
	if sw, ok := d1.Crashed(); !ok || sw != crashAt {
		t.Fatalf("crash did not fire at %d: ok=%v sw=%d", crashAt, ok, sw)
	}
	if !d1.DurabilityDegraded() {
		t.Fatal("scenario needs the crash to land inside the degraded stretch")
	}
	// The live stream stayed byte-identical right up to the crash.
	if pre := d1.Results(); !reflect.DeepEqual(pre, baseline.Results()[:len(pre)]) {
		t.Fatal("degraded pre-crash windows diverged from the fault-free run")
	}

	d2 := newDisk(t, diskConfig(dir, nil, &faults.DiskSchedule{}))
	d2.RunFor(traceTail(chaosTrace(), crashAt), 500*ms)
	incomplete := assertIdenticalOrIncomplete(t, baseline.Results(), d2.Results())
	if incomplete == 0 {
		t.Fatal("crash inside a degraded stretch must surface Incomplete windows")
	}
	if err := d2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosCrashRestartProperty is the seeded sweep: random disk
// schedules (EIO, short writes, bit rot, slow IO) × crash-restart. No
// matter where the faults land — in segments, in checkpoints, caught by
// the scrubber or only at recovery — every recovered window is
// byte-identical to the fault-free run or explicitly Incomplete. The
// spilling run logs every sub-window's raised trigger beside its records.
func TestDiskChaosCrashRestartProperty(t *testing.T) {
	baseline := runChaos(t, nil)
	seeds := []uint64{1, 2, 3, 5}
	seeds = append(seeds, faults.ExtraSeeds(11)...)
	const crashAt = 2
	for i, seed := range append(seeds, 1) {
		name, spill := fmt.Sprintf("seed%d", seed), i == len(seeds)
		if spill {
			name += "+spill"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sched := &faults.DiskSchedule{
				Seed: seed, WriteEIO: 0.05, ShortWrite: 0.03, BitRot: 0.03, SlowIO: 0.05,
			}
			cfg := diskConfig(dir, crashes(crashAt), sched)
			cfg.DurabilityRetryLimit = 6
			cfg.WALSegmentBytes = 2048
			if spill {
				chaosSpill(&cfg)
			}
			d1 := runDisk(t, cfg)
			if sw, ok := d1.Crashed(); !ok || sw != crashAt {
				t.Fatalf("crash did not fire at %d: ok=%v sw=%d", crashAt, ok, sw)
			}
			if pre := d1.Results(); !reflect.DeepEqual(pre, baseline.Results()[:len(pre)]) {
				t.Fatal("faulty-disk pre-crash windows diverged from the fault-free run")
			}

			// Restart on the same faulty disk: recovery itself must cope
			// with injected read errors and whatever the crash tore.
			cfg.Crash = nil
			d2 := newDisk(t, cfg)
			d2.RunFor(traceTail(chaosTrace(), crashAt), 500*ms)
			assertIdenticalOrIncomplete(t, baseline.Results(), d2.Results())
			if err := d2.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskChaosQuarantineLSNReconciliation corrupts one WAL segment on
// disk between crash and restart, then audits the recovery books: the
// store dies before the crash boundary's checkpoint commits, so that
// boundary's frames are on disk, spread over several small segments, the
// corrupted one before the one holding the boundary's finish (checked, not
// assumed: the segment cap and the frame size set that geometry), so the
// restart still re-emits the window. The
// quarantined file's frames all land inside reported Lost ranges, no
// replayed frame does, and with the frames the last checkpoint covers they
// account for every LSN the pre-crash run issued — covered + recovered +
// quarantined = everything, exactly.
func TestDiskChaosQuarantineLSNReconciliation(t *testing.T) {
	baseline := runChaos(t, nil)
	var issued, covered uint64
	var victim string
	var victimLSNs map[uint64]bool
	r := crashCase{
		config: func(dir string) Config {
			cfg := diskConfig(dir, nil, &faults.DiskSchedule{})
			cfg.WALSegmentBytes = 512 // force rotation: one boundary's frames span several segments
			return cfg
		},
		b: 3, point: uncommitted,
		between: func(d1 *Deployment) {
			dir := d1.cfg.CheckpointDir
			issued = d1.store.LSN()
			covered = readManifest(t, dir).ThroughLSN
			// Enumerate every frame on disk, then corrupt one segment.
			recsByFile := walRecordsByFile(t, dir)
			boundary, finish := 0, ""
			for path, recs := range recsByFile {
				if recs[len(recs)-1].LSN > covered {
					boundary++
				}
				for _, r := range recs {
					if r.LSN > covered && r.Type == wire.WALFinish {
						finish = path
					}
				}
				if len(recs) >= 2 && recs[0].LSN > covered && (victim == "" || path < victim) {
					victim = path // deterministic pick: oldest multi-frame segment past the checkpoint
				}
			}
			if boundary < 2 || finish == "" {
				t.Fatalf("the crash boundary's frames fill %d segment(s) (finish in %q), want several and its finish", boundary, finish)
			}
			// Names sort in generation order, which is LSN order. A victim
			// holding the finish would leave no window to re-emit.
			if victim == "" || victim >= finish {
				t.Fatalf("no multi-frame segment before the finish's %s to corrupt; victim %q", finish, victim)
			}
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40 // inside the last frame: CRC check must fail
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
			victimLSNs = make(map[uint64]bool)
			for _, r := range recsByFile[victim] {
				victimLSNs[r.LSN] = true
			}
		},
	}.run(t)
	d2 := r.d2

	if q := d2.store.Quarantined(); q < 1 {
		t.Fatalf("corrupt segment was not quarantined (quarantined=%d)", q)
	}
	if st := d2.Stats(); st.QuarantinedSegments < 1 {
		t.Fatalf("Stats did not fold the quarantine tally: %+v", st)
	}
	if _, err := os.Stat(victim + ".quarantined"); err != nil {
		t.Fatalf("victim was not renamed aside: %v", err)
	}

	// The reconciliation: every issued LSN is exactly one of covered by the
	// checkpoint, replayed or lost. Whole-file quarantine means lost == the
	// victim's frames.
	lost := d2.store.Lost()
	inLost := func(l uint64) bool {
		for _, lr := range lost {
			if l >= lr.From && l <= lr.To {
				return true
			}
		}
		return false
	}
	if covered == 0 || covered >= issued {
		t.Fatalf("checkpoint covers %d of %d LSNs: want a checkpoint and frames past it", covered, issued)
	}
	for l := uint64(1); l <= issued; l++ {
		if l <= covered && (victimLSNs[l] || inLost(l)) {
			t.Fatalf("LSN %d: covered by the checkpoint but quarantined=%v inLost=%v (lost=%v)", l, victimLSNs[l], inLost(l), lost)
		}
		if victimLSNs[l] != inLost(l) {
			t.Fatalf("LSN %d: quarantined=%v but inLost=%v (lost=%v)", l, victimLSNs[l], inLost(l), lost)
		}
	}

	incomplete := assertIdenticalOrIncomplete(t, baseline.Results(), r.stitched)
	if incomplete == 0 {
		t.Fatal("quarantined frames must surface as Incomplete windows")
	}
}

// TestDiskChaosDeterministic: the same schedule seed twice yields the
// same window stream AND the same fault accounting — the chaos suite is
// replayable evidence, not noise.
func TestDiskChaosDeterministic(t *testing.T) {
	run := func() (*Deployment, Stats) {
		d := runDisk(t, func() Config {
			cfg := diskConfig(t.TempDir(), nil, &faults.DiskSchedule{
				Seed: 99, WriteEIO: 0.15, ShortWrite: 0.05, SlowIO: 0.2,
			})
			cfg.DurabilityRetryLimit = 8
			return cfg
		}())
		return d, d.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if !reflect.DeepEqual(d1.Results(), d2.Results()) {
		t.Fatal("same disk seed produced different window streams")
	}
	if s1.DurabilityGaps != s2.DurabilityGaps || d1.store.WALErrors() != d2.store.WALErrors() ||
		d1.store.Rotations() != d2.store.Rotations() {
		t.Fatalf("same disk seed produced different fault accounting:\n%+v walErrs=%d rot=%d\n%+v walErrs=%d rot=%d",
			s1, d1.store.WALErrors(), d1.store.Rotations(), s2, d2.store.WALErrors(), d2.store.Rotations())
	}
	d1.CloseDurability()
	d2.CloseDurability()
}

// walLSNsByFile decodes every WAL segment in dir and returns the LSNs of
// the frames in each, keyed by path.
func walLSNsByFile(t *testing.T, dir string) map[string][]uint64 {
	t.Helper()
	out := make(map[string][]uint64)
	for path, recs := range walRecordsByFile(t, dir) {
		for _, r := range recs {
			out[path] = append(out[path], r.LSN)
		}
	}
	return out
}

// walRecordsByFile decodes every WAL segment in dir and returns the frames
// in each, keyed by path, up to a torn tail.
func walRecordsByFile(t *testing.T, dir string) map[string][]*wire.WALRecord {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]*wire.WALRecord)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeSegmentHeader(data); err != nil {
			t.Fatalf("%s: bad segment header: %v", name, err)
		}
		rest := data[wire.SegmentHeaderSize:]
		for len(rest) > 0 {
			rec, n, err := wire.DecodeWALRecord(rest)
			if errors.Is(err, wire.ErrTruncated) {
				break // torn tail: the crash interrupted this append
			}
			if err != nil {
				t.Fatalf("%s: frame decode: %v", name, err)
			}
			out[path] = append(out[path], rec)
			rest = rest[n:]
		}
	}
	return out
}
