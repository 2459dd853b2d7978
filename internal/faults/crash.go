package faults

// CrashSchedule decides, deterministically, whether the controller process
// dies at a given sub-window boundary. It is deliberately NOT drawn from
// the Injector's PRNG stream: every Injector event draws a fixed number of
// values so enabling one fault kind never shifts another's schedule, and
// crash decisions happen at boundaries, not events — hashing (Seed,
// boundary) keeps crashes reproducible per seed while leaving every
// existing fault schedule untouched.
type CrashSchedule struct {
	// Seed parameterizes the per-boundary hash.
	Seed uint64
	// Prob is the crash probability per sub-window boundary.
	Prob float64
	// Fixed lists boundaries that always crash, regardless of Prob —
	// the kill-and-restart suite uses it to hit every boundary in turn.
	Fixed []uint64
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed stateless
// hash (the same construction seeds xoshiro generators).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mix hashes input x under (seed, salt). Every stateless schedule decides
// through it: a fault kind's salt keeps its stream independent of every
// other kind's, and of every other schedule family's.
func mix(seed, salt, x uint64) uint64 {
	return splitmix64(seed ^ salt ^ splitmix64(x))
}

// draw maps mix's hash to [0, 1): the one probability draw behind every
// schedule predicate.
func draw(seed, salt, x uint64) float64 {
	return float64(mix(seed, salt, x)>>11) / float64(1<<53)
}

// hit reports whether a fault of probability p fires at input x. A kind
// that is switched off (p <= 0) never fires, whatever the hash.
func hit(p float64, seed, salt, x uint64) bool {
	return p > 0 && draw(seed, salt, x) < p
}

// At reports whether the schedule crashes the controller at boundary sw.
func (c CrashSchedule) At(sw uint64) bool { return c.at(0, sw) }

// at is At under a salt, so schedules that embed a CrashSchedule (switch,
// RDMA) draw each of their boundary faults from its own stream.
func (c CrashSchedule) at(salt, sw uint64) bool {
	for _, f := range c.Fixed {
		if f == sw {
			return true
		}
	}
	return hit(c.Prob, c.Seed, salt, sw)
}
