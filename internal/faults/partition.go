package faults

// PartitionSchedule describes network failures between the hot-standby
// pair's two halves (standby.go): the primary→standby lease-renewal
// channel. The standby reads no state over the network — a promotion
// rebuilds from the shared log — so a partition reaches the pair as one
// input only: a renewal that does not arrive. Whether the pair was cut
// apart, only the renewals were lost, or they crawled past the lease TTL,
// the standby sees the same thing. Like the Crash, Disk and RDMA schedules
// it is stateless and deterministic: Cut hashes (Seed, sub-window
// boundary) under its own salt, so it never shifts any other schedule.
// The zero value (and a nil schedule) is a healthy network.
//
// A run of consecutive cut boundaries (Cut.Fixed) long enough to outlast
// the lease promotes the standby; fencing deposes the primary, which is
// re-admitted as the new standby at the first uncut boundary.
type PartitionSchedule struct {
	// Seed parameterizes the hash below.
	Seed uint64

	// Cut loses the lease renewal at the boundaries it fires at.
	Cut Fault
}

// saltPartCut keeps the cut's hash stream independent of every other
// schedule's.
const saltPartCut = 0x504152545359_01 // "PARTSY"

// RenewCut reports whether the primary's lease renewal at boundary sw is
// lost. Nil-safe.
func (s *PartitionSchedule) RenewCut(sw uint64) bool {
	return s != nil && s.Cut.at(s.Seed, saltPartCut, sw)
}
