package faults

// PartitionSchedule describes network failures between the hot-standby
// pair's two halves (standby.go): the primary→standby lease-renewal
// channel. The standby reads no state over the network — a promotion
// rebuilds from the shared log — so the renewals are all a partition can
// cut. Like the Crash, Disk and RDMA schedules it is stateless and
// deterministic — every fault hashes (Seed, sub-window boundary) under its
// own salt, so enabling one fault kind never shifts another's schedule,
// and never shifts any other schedule family either. The zero value (and
// a nil schedule) is a healthy network.
//
// Fault classes, per boundary:
//
//   - Symmetric: the pair cut apart, renewals lost. A long enough
//     partition (its consecutive boundaries listed in Symmetric.Fixed)
//     expires the lease and promotes the standby; fencing deposes the
//     primary.
//   - RenewOnly (asymmetric): renewals lost while the primary is
//     otherwise healthy. The classic zombie-primary case — fencing makes
//     the spurious takeover safe.
//   - Gray (slowness, not loss): the renewal is issued but arrives
//     DelayNs late. A delay beyond the lease TTL is indistinguishable
//     from loss to the standby — the gray-failure trigger.
//
// DriftNs skews the standby's virtual clock against the primary's for
// lease observations: a fast standby clock (positive drift) promotes
// early and spuriously, a slow one promotes late. Drift is constant, not
// hashed — clock skew is a property of the node, not of the boundary.
type PartitionSchedule struct {
	// Seed parameterizes every hash below.
	Seed uint64

	// Symmetric cuts the pair apart at matching boundaries.
	Symmetric Fault
	// RenewOnly is the per-boundary probability a renewal alone is lost.
	RenewOnly float64
	// Gray is the per-boundary probability the renewal is delayed by
	// DelayNs instead of lost.
	Gray float64
	// DelayNs is the gray renewal's latency in virtual ns; 0 defaults to
	// 1ms.
	DelayNs int64
	// DriftNs is the standby's constant clock skew in virtual ns
	// (positive = standby clock ahead of the primary's).
	DriftNs int64
}

// Distinct salts keep the per-kind hash streams independent.
const (
	saltPartSym   = 0x504152545359_01 // "PARTSY"
	saltPartRenew = 0x50415254524E_02 // "PARTRN"
	saltPartGray  = 0x504152544752_04 // "PARTGR"
)

// RenewCut reports whether the primary's lease renewal at boundary sw is
// lost (symmetric cut, or the asymmetric renewal-only cut). Nil-safe.
func (s *PartitionSchedule) RenewCut(sw uint64) bool {
	return s != nil && (s.Symmetric.at(s.Seed, saltPartSym, sw) || hit(s.RenewOnly, s.Seed, saltPartRenew, sw))
}

// GrayAt reports whether the renewal at boundary sw is delayed rather
// than lost, and by how much virtual time. A boundary that is already cut
// (RenewCut) is not also gray — loss dominates slowness. Nil-safe.
func (s *PartitionSchedule) GrayAt(sw uint64) (bool, int64) {
	if s == nil || s.RenewCut(sw) || !hit(s.Gray, s.Seed, saltPartGray, sw) {
		return false, 0
	}
	d := s.DelayNs
	if d <= 0 {
		d = 1_000_000 // 1ms
	}
	return true, d
}

// Any reports whether any partition fault is active at boundary sw — the
// deployment's "partition-free boundary" predicate gating re-admission of
// a demoted primary. Constant drift alone is not an event. Nil-safe.
func (s *PartitionSchedule) Any(sw uint64) bool {
	if s == nil {
		return false
	}
	if s.RenewCut(sw) {
		return true
	}
	gray, _ := s.GrayAt(sw)
	return gray
}

// Drift returns the standby's constant clock skew. Nil-safe.
func (s *PartitionSchedule) Drift() int64 {
	if s == nil {
		return 0
	}
	return s.DriftNs
}
