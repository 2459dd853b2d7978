package faults

// RDMASchedule describes the failure behaviour of the RDMA collection
// transport (internal/rdma). Like CrashSchedule it is stateless and
// deterministic: per-verb faults hash (Seed, verb index, attempt) and
// boundary faults hash (Seed, boundary), each fault kind under its own
// salt, so enabling one kind never shifts another's schedule and a retried
// verb redraws its fate independently per attempt.
// The zero value (and a nil schedule) is a healthy transport.
type RDMASchedule struct {
	// Seed parameterizes every hash below.
	Seed uint64

	// VerbError is the probability a verb completes with a CQ error
	// (RNR-style transient: the requester sees the failure immediately
	// and may retry the verb).
	VerbError float64

	// PSNDrop is the probability a verb's request packet is silently
	// lost in flight: the requester believes it sent, the memory region
	// never sees it, and only the controller-side PSN-gap scan at the
	// next drain notices the hole.
	PSNDrop float64

	// QPError fires an asynchronous queue-pair error at matching
	// sub-window boundaries: the QP transitions to Error and every send
	// until the next successful recovery falls back to the packet path.
	QPError Fault

	// MRInvalidate destroys the registered memory region at matching
	// boundaries (before that boundary's drain): applied-but-undrained
	// verbs are wiped and must be replayed from the transport's pending
	// window; anything outside the window is permanently lost.
	MRInvalidate Fault

	// Outage makes QP recovery fail at matching boundaries, so the
	// transport stays in Error and the deployment rides the packet path
	// until the outage lifts. A sustained outage lists its consecutive
	// boundaries in Fixed.
	Outage Fault
}

// Distinct salts keep the per-kind hash streams independent.
const (
	saltVerbError    = 0x52444D415645_01 // "RDMAVE"
	saltPSNDrop      = 0x52444D415053_02 // "RDMAPS"
	saltQPError      = 0x52444D415150_03 // "RDMAQP"
	saltMRInvalidate = 0x52444D414D52_04 // "RDMAMR"
	saltOutage       = 0x52444D414F55_05 // "RDMAOU"
)

// verbKey folds (verb index, attempt) into one hash input. Attempts are
// small (bounded retries), so the golden-ratio stride keeps redraws for
// the same verb independent without colliding across verbs.
func verbKey(idx uint64, attempt int) uint64 {
	return idx + uint64(attempt)*0x9E3779B97F4A7C15
}

// VerbErrorAt reports whether verb idx's attempt completes with an
// injected CQ error. Nil-safe.
func (s *RDMASchedule) VerbErrorAt(idx uint64, attempt int) bool {
	return s != nil && hit(s.VerbError, s.Seed, saltVerbError, verbKey(idx, attempt))
}

// PSNDropAt reports whether verb idx's attempt is lost in flight.
// Nil-safe.
func (s *RDMASchedule) PSNDropAt(idx uint64, attempt int) bool {
	return s != nil && hit(s.PSNDrop, s.Seed, saltPSNDrop, verbKey(idx, attempt))
}

// QPErrorAt reports whether the QP faults to Error at boundary sw.
// Nil-safe.
func (s *RDMASchedule) QPErrorAt(sw uint64) bool {
	return s != nil && s.QPError.at(s.Seed, saltQPError, sw)
}

// MRInvalidateAt reports whether the registered region is destroyed at
// boundary sw. Nil-safe.
func (s *RDMASchedule) MRInvalidateAt(sw uint64) bool {
	return s != nil && s.MRInvalidate.at(s.Seed, saltMRInvalidate, sw)
}

// OutageAt reports whether QP recovery is impossible at boundary sw.
// Nil-safe.
func (s *RDMASchedule) OutageAt(sw uint64) bool {
	return s != nil && s.Outage.at(s.Seed, saltOutage, sw)
}
