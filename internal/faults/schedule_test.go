package faults

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// mask64 is a predicate's answers at inputs 0..63, bit i = input i.
func mask64(at func(x uint64) bool) uint64 {
	var m uint64
	for x := uint64(0); x < 64; x++ {
		if at(x) {
			m |= 1 << x
		}
	}
	return m
}

// TestRDMAScheduleSeedGovernsBoundaryKinds: a schedule's Seed parameterizes
// every kind it holds, its boundary kinds included — two schedules that
// differ only in Seed draw different QP-error and invalidation boundaries.
func TestRDMAScheduleSeedGovernsBoundaryKinds(t *testing.T) {
	sched := func(seed uint64) *RDMASchedule {
		return &RDMASchedule{Seed: seed,
			QPError:      Fault{Prob: 0.5},
			MRInvalidate: Fault{Prob: 0.5}}
	}
	a, b := sched(1), sched(2)
	for _, k := range []struct {
		name string
		at   func(*RDMASchedule, uint64) bool
	}{
		{"QPError", (*RDMASchedule).QPErrorAt},
		{"MRInvalidate", (*RDMASchedule).MRInvalidateAt},
	} {
		ma := mask64(func(x uint64) bool { return k.at(a, x) })
		mb := mask64(func(x uint64) bool { return k.at(b, x) })
		if ma == mb {
			t.Errorf("%s: seeds 1 and 2 draw the same 64-boundary mask %#016x: the schedule's Seed does not reach it", k.name, ma)
		}
	}
}

// schedules holds one schedule of every family, all under one seed.
type schedules struct {
	crash *CrashSchedule
	rdma  *RDMASchedule
	disk  *DiskSchedule
	part  *PartitionSchedule
}

func seeded(seed uint64) *schedules {
	return &schedules{&CrashSchedule{Seed: seed}, &RDMASchedule{Seed: seed},
		&DiskSchedule{Seed: seed}, &PartitionSchedule{Seed: seed}}
}

// kind is one schedule predicate. on switches on the fault kind the
// predicate reads: a Fault kind takes f whole, a per-event draw its Prob.
type kind struct {
	name  string
	on    func(s *schedules, f Fault)
	at    func(s *schedules, x uint64) bool
	fixed bool // the predicate fires at a Fault's Fixed inputs
}

var kinds = []kind{
	{"Crash.At", func(s *schedules, f Fault) { s.crash.Fault = f },
		func(s *schedules, x uint64) bool { return s.crash.At(x) }, true},
	{"RDMA.VerbErrorAt", func(s *schedules, f Fault) { s.rdma.VerbError = f.Prob },
		func(s *schedules, x uint64) bool { return s.rdma.VerbErrorAt(x, 0) }, false},
	{"RDMA.PSNDropAt", func(s *schedules, f Fault) { s.rdma.PSNDrop = f.Prob },
		func(s *schedules, x uint64) bool { return s.rdma.PSNDropAt(x, 0) }, false},
	{"RDMA.QPErrorAt", func(s *schedules, f Fault) { s.rdma.QPError = f },
		func(s *schedules, x uint64) bool { return s.rdma.QPErrorAt(x) }, true},
	{"RDMA.MRInvalidateAt", func(s *schedules, f Fault) { s.rdma.MRInvalidate = f },
		func(s *schedules, x uint64) bool { return s.rdma.MRInvalidateAt(x) }, true},
	{"RDMA.OutageAt", func(s *schedules, f Fault) { s.rdma.Outage = f },
		func(s *schedules, x uint64) bool { return s.rdma.OutageAt(x) }, true},
	{"Disk.WriteEIOAt", func(s *schedules, f Fault) { s.disk.WriteEIO = f.Prob },
		func(s *schedules, x uint64) bool { return s.disk.WriteEIOAt(x) }, false},
	{"Disk.ReadEIOAt", func(s *schedules, f Fault) { s.disk.ReadEIO = f.Prob },
		func(s *schedules, x uint64) bool { return s.disk.ReadEIOAt(x) }, false},
	{"Disk.ShortWriteAt", func(s *schedules, f Fault) { s.disk.ShortWrite = f.Prob },
		func(s *schedules, x uint64) bool { return s.disk.ShortWriteAt(x) }, false},
	{"Disk.BitRotAt", func(s *schedules, f Fault) { s.disk.BitRot = f.Prob },
		func(s *schedules, x uint64) bool { return s.disk.BitRotAt(x) }, false},
	{"Disk.SlowIOAt", func(s *schedules, f Fault) { s.disk.SlowIO = f.Prob },
		func(s *schedules, x uint64) bool { ok, _ := s.disk.SlowIOAt(x); return ok }, false},
	{"Disk.ENOSPCAt", func(s *schedules, f Fault) { s.disk.ENOSPC = f },
		func(s *schedules, x uint64) bool { return s.disk.ENOSPCAt(x) }, true},
	{"Partition.RenewCut", func(s *schedules, f Fault) { s.part.Cut = f },
		func(s *schedules, x uint64) bool { return s.part.RenewCut(x) }, true},
}

// with builds seeded(seed) with k's kinds on at f.
func (k kind) with(seed uint64, f Fault) *schedules {
	s := seeded(seed)
	k.on(s, f)
	return s
}

func (k kind) mask(s *schedules) uint64 { return mask64(func(x uint64) bool { return k.at(s, x) }) }

// allOn is seeded(seed) with every kind of every family on at p.
func allOn(seed uint64, p float64) *schedules {
	s := seeded(seed)
	for _, k := range kinds {
		k.on(s, Fault{Prob: p})
	}
	return s
}

// properties are the checks every schedule predicate owes.
var properties = []struct {
	name  string
	check func(t *testing.T, k kind)
}{
	{"nil-safe", func(t *testing.T, k kind) {
		if !strings.HasPrefix(k.name, "Crash.") && k.mask(&schedules{}) != 0 { // Config nil-checks its *CrashSchedule
			t.Error("a nil schedule injected a fault")
		}
	}},
	{"zero-healthy", func(t *testing.T, k kind) {
		for x, s := uint64(0), seeded(7); x < 1000; x++ {
			if k.at(s, x) {
				t.Fatalf("the zero-value schedule faulted at %d", x)
			}
		}
	}},
	{"deterministic", func(t *testing.T, k kind) {
		if k.mask(k.with(7, Fault{Prob: 0.3})) != k.mask(k.with(7, Fault{Prob: 0.3})) {
			t.Error("the same seed decided differently")
		}
	}},
	{"fixed", func(t *testing.T, k kind) {
		want := uint64(0)
		if k.fixed {
			want = 1<<3 | 1<<9
		}
		if got := k.mask(k.with(7, Fault{Fixed: []uint64{3, 9}})); got != want {
			t.Errorf("Fixed {3, 9} at Prob 0: mask %#x, want %#x", got, want)
		}
	}},
	{"independent", func(t *testing.T, k kind) {
		all := allOn(11, 0.5)
		if k.mask(k.with(11, Fault{Prob: 0.5})) != k.mask(all) {
			t.Error("switching on the other kinds shifted this one's stream")
		}
		for _, o := range kinds {
			if o.name != k.name && o.mask(all) == k.mask(all) {
				t.Errorf("draws the same stream as %s: salts collide", o.name)
			}
		}
	}},
	{"rates", func(t *testing.T, k kind) {
		const p, n = 0.2, 20000
		hits, s := 0, k.with(3, Fault{Prob: p})
		for x := uint64(0); x < n; x++ {
			if k.at(s, x) {
				hits++
			}
		}
		if got := float64(hits) / n; math.Abs(got-p) > 0.03 {
			t.Errorf("fire rate %.3f at Prob %.1f", got, p)
		}
	}},
	{"seed", func(t *testing.T, k kind) {
		if k.mask(k.with(1, Fault{Prob: 0.5})) == k.mask(k.with(2, Fault{Prob: 0.5})) {
			t.Error("seeds 1 and 2 draw the same mask: the schedule's Seed does not reach this kind")
		}
	}},
}

// checkKinds runs the named properties (all of them when none is named)
// over every predicate whose name starts with prefix.
func checkKinds(t *testing.T, prefix string, props ...string) {
	for _, p := range properties {
		if len(props) > 0 && !slices.Contains(props, p.name) {
			continue
		}
		for _, k := range kinds {
			if strings.HasPrefix(k.name, prefix) {
				t.Run(p.name+"/"+k.name, func(t *testing.T) { p.check(t, k) })
			}
		}
	}
}

// TestScheduleKinds holds every predicate of every schedule family to the
// same contract: nil and zero schedules are healthy, a seed decides
// deterministically and governs every kind, Fixed inputs always fire,
// each kind draws its own stream at its configured rate.
func TestScheduleKinds(t *testing.T) { checkKinds(t, "") }

// The per-family tests the table replaced, each still runnable on its own.
func TestCrashScheduleDeterministic(t *testing.T) { checkKinds(t, "Crash.", "deterministic") }
func TestCrashScheduleSeedsDiffer(t *testing.T)   { checkKinds(t, "Crash.", "seed") }
func TestCrashScheduleFixedAndZeroProb(t *testing.T) {
	checkKinds(t, "Crash.", "fixed", "zero-healthy")
}
func TestRDMAScheduleNilSafe(t *testing.T)           { checkKinds(t, "RDMA.", "nil-safe") }
func TestRDMAScheduleDeterministic(t *testing.T)     { checkKinds(t, "RDMA.", "deterministic") }
func TestRDMAScheduleKindsIndependent(t *testing.T)  { checkKinds(t, "RDMA.", "independent") }
func TestRDMAScheduleFixedBoundaries(t *testing.T)   { checkKinds(t, "RDMA.", "fixed") }
func TestRDMAScheduleOutageWindow(t *testing.T)      { checkKinds(t, "RDMA.OutageAt", "fixed") }
func TestDiskScheduleNilSafe(t *testing.T)           { checkKinds(t, "Disk.", "nil-safe") }
func TestDiskScheduleZeroValueHealthy(t *testing.T)  { checkKinds(t, "Disk.", "zero-healthy") }
func TestDiskScheduleDeterministic(t *testing.T)     { checkKinds(t, "Disk.", "deterministic") }
func TestDiskScheduleKindsIndependent(t *testing.T)  { checkKinds(t, "Disk.", "independent") }
func TestDiskScheduleRatesRoughlyMatch(t *testing.T) { checkKinds(t, "Disk.", "rates") }
func TestDiskScheduleENOSPCWindow(t *testing.T)      { checkKinds(t, "Disk.ENOSPCAt", "fixed") }
func TestPartitionScheduleNilSafe(t *testing.T)      { checkKinds(t, "Partition.", "nil-safe") }
func TestPartitionScheduleZeroValueHealthy(t *testing.T) {
	checkKinds(t, "Partition.", "zero-healthy")
}
func TestPartitionScheduleWindows(t *testing.T)       { checkKinds(t, "Partition.", "fixed") }
func TestPartitionScheduleDeterministic(t *testing.T) { checkKinds(t, "Partition.", "deterministic") }
func TestPartitionScheduleKindsIndependent(t *testing.T) {
	checkKinds(t, "Partition.", "independent")
}
func TestPartitionScheduleRatesRoughlyMatch(t *testing.T) { checkKinds(t, "Partition.", "rates") }

// TestCrashScheduleLeavesInjectorUntouched: enabling a crash schedule must
// not shift any Injector fault stream — CrashSchedule is stateless and
// draws nothing from the injector's PRNG.
func TestCrashScheduleLeavesInjectorUntouched(t *testing.T) {
	drops := func(withCrashChecks bool) int {
		inj := New(Config{Seed: 11, Drop: 0.2})
		cs := CrashSchedule{Seed: 11, Fault: Fault{Prob: 0.5}}
		n := 0
		for i := 0; i < 500; i++ {
			if withCrashChecks {
				cs.At(uint64(i)) // interleaved crash decisions
			}
			if inj.Packet().Drop {
				n++
			}
		}
		return n
	}
	if a, b := drops(false), drops(true); a != b {
		t.Fatalf("crash checks perturbed the drop schedule: %d vs %d", a, b)
	}
}

// TestRDMAScheduleAttemptsIndependent: a retried verb redraws its fate;
// with a 50% error rate some verb must fail attempt 0 and pass attempt 1.
func TestRDMAScheduleAttemptsIndependent(t *testing.T) {
	s := &RDMASchedule{Seed: 5, VerbError: 0.5}
	for idx := uint64(0); idx < 200; idx++ {
		if s.VerbErrorAt(idx, 0) && !s.VerbErrorAt(idx, 1) {
			return
		}
	}
	t.Fatal("no verb ever succeeded on retry — attempts are not independent draws")
}

func TestDiskScheduleBitRotSpot(t *testing.T) {
	s := &DiskSchedule{Seed: 11, BitRot: 1}
	for op := uint64(0); op < 200; op++ {
		idx, mask := s.BitRotSpot(op, 64)
		if idx < 0 || idx >= 64 {
			t.Fatalf("bit-rot index %d out of range", idx)
		}
		if mask == 0 {
			t.Fatal("bit-rot mask is zero: the flip would be a no-op")
		}
		if i2, m2 := s.BitRotSpot(op, 64); i2 != idx || m2 != mask {
			t.Fatal("BitRotSpot not deterministic")
		}
	}
	if idx, mask := s.BitRotSpot(5, 0); idx != 0 || mask == 0 {
		t.Fatal("BitRotSpot must stay in range for empty writes")
	}
}

func TestDiskScheduleSlowIODefaultLatency(t *testing.T) {
	s := &DiskSchedule{Seed: 2, SlowIO: 1}
	if slow, lat := s.SlowIOAt(0); !slow || lat != 1_000_000 {
		t.Fatalf("default slow-IO latency: got (%v, %d), want (true, 1ms)", slow, lat)
	}
	s.SlowIOLatency = 250
	if _, lat := s.SlowIOAt(0); lat != 250 {
		t.Fatalf("explicit slow-IO latency ignored: got %d", lat)
	}
	if slow, lat := (*DiskSchedule)(nil).SlowIOAt(0); slow || lat != 0 {
		t.Fatal("nil schedule injected slow IO")
	}
}
