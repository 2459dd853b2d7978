package faults

import "testing"

func TestPartitionScheduleNilSafe(t *testing.T) {
	var s *PartitionSchedule
	if s.RenewCut(1) || s.CkptCut(1) || s.Any(1) {
		t.Fatal("nil schedule injected a partition")
	}
	if gray, d := s.GrayAt(1); gray || d != 0 {
		t.Fatal("nil schedule injected gray slowness")
	}
	if s.Drift() != 0 {
		t.Fatal("nil schedule drifted")
	}
}

func TestPartitionScheduleZeroValueHealthy(t *testing.T) {
	s := &PartitionSchedule{Seed: 7}
	for sw := uint64(0); sw < 1000; sw++ {
		if s.Any(sw) {
			t.Fatalf("zero-prob schedule partitioned at boundary %d", sw)
		}
	}
}

func TestPartitionScheduleWindows(t *testing.T) {
	s := &PartitionSchedule{Windows: []PartitionWindow{{Start: 3, Len: 2}, {Start: 9, Len: 1}}}
	for sw := uint64(0); sw < 12; sw++ {
		want := (sw >= 3 && sw < 5) || sw == 9
		if got := s.RenewCut(sw); got != want {
			t.Fatalf("RenewCut(%d) = %v, want %v", sw, got, want)
		}
		if got := s.CkptCut(sw); got != want {
			t.Fatalf("CkptCut(%d) = %v, want %v", sw, got, want)
		}
		if got := s.Any(sw); got != want {
			t.Fatalf("Any(%d) = %v, want %v", sw, got, want)
		}
	}
	// A zero-length window is no window.
	empty := &PartitionSchedule{Windows: []PartitionWindow{{Start: 3, Len: 0}}}
	if empty.Any(3) {
		t.Fatal("zero-length window partitioned")
	}
}

func TestPartitionScheduleDeterministic(t *testing.T) {
	a := &PartitionSchedule{Seed: 42, Symmetric: 0.2, RenewOnly: 0.3, CkptOnly: 0.3, Gray: 0.4, DelayNs: 5}
	b := &PartitionSchedule{Seed: 42, Symmetric: 0.2, RenewOnly: 0.3, CkptOnly: 0.3, Gray: 0.4, DelayNs: 5}
	for sw := uint64(0); sw < 500; sw++ {
		if a.RenewCut(sw) != b.RenewCut(sw) || a.CkptCut(sw) != b.CkptCut(sw) || a.Any(sw) != b.Any(sw) {
			t.Fatalf("same seed diverged at boundary %d", sw)
		}
		ag, ad := a.GrayAt(sw)
		bg, bd := b.GrayAt(sw)
		if ag != bg || ad != bd {
			t.Fatalf("gray draw diverged at boundary %d", sw)
		}
	}
}

// Fault kinds hash under distinct salts: enabling one must not shift
// another's schedule — the property the whole injector family relies on.
func TestPartitionScheduleKindsIndependent(t *testing.T) {
	lone := &PartitionSchedule{Seed: 9, CkptOnly: 0.25}
	both := &PartitionSchedule{Seed: 9, CkptOnly: 0.25, RenewOnly: 0.5}
	for sw := uint64(0); sw < 1000; sw++ {
		// CkptOnly draws must be identical whether or not RenewOnly runs.
		if lone.CkptCut(sw) != both.CkptCut(sw) {
			t.Fatalf("enabling RenewOnly shifted the CkptOnly stream at boundary %d", sw)
		}
	}
	// And the partition salts are disjoint from the crash schedule's hash:
	// a CrashSchedule and a PartitionSchedule with the same seed must not
	// produce identical decision streams.
	crash := &CrashSchedule{Seed: 9, Prob: 0.25}
	part := &PartitionSchedule{Seed: 9, Symmetric: 0.25}
	same := 0
	for sw := uint64(0); sw < 1000; sw++ {
		if crash.At(sw) == part.RenewCut(sw) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("partition stream mirrors the crash stream — salts collide")
	}
}

// Loss dominates slowness: a boundary whose renewal is cut cannot also be
// gray, so the deployment never double-charges one renewal.
func TestPartitionScheduleLossDominatesGray(t *testing.T) {
	s := &PartitionSchedule{Seed: 5, Symmetric: 1, Gray: 1, DelayNs: 7}
	for sw := uint64(0); sw < 100; sw++ {
		if gray, _ := s.GrayAt(sw); gray {
			t.Fatalf("boundary %d is both cut and gray", sw)
		}
		if !s.RenewCut(sw) {
			t.Fatalf("boundary %d should be cut", sw)
		}
	}
}

func TestPartitionScheduleGrayDefaultsDelay(t *testing.T) {
	s := &PartitionSchedule{Seed: 5, Gray: 1}
	gray, d := s.GrayAt(0)
	if !gray || d != 1_000_000 {
		t.Fatalf("GrayAt = %v, %d; want true, 1ms default", gray, d)
	}
	s.DelayNs = 42
	if _, d := s.GrayAt(0); d != 42 {
		t.Fatalf("explicit delay = %d, want 42", d)
	}
}

func TestPartitionScheduleRatesRoughlyMatch(t *testing.T) {
	s := &PartitionSchedule{Seed: 3, Symmetric: 0.2}
	hits := 0
	const n = 20000
	for sw := uint64(0); sw < n; sw++ {
		if s.RenewCut(sw) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.17 || got > 0.23 {
		t.Fatalf("symmetric rate %.3f, want ~0.2", got)
	}
}
