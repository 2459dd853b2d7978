package faults

import "slices"

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

// Fault is one fault kind of a schedule, decided per input — a sub-window
// boundary, a disk operation index. It fires at every input in Fixed, and
// elsewhere with probability Prob. A kind has no seed of its own: it draws
// under its schedule's Seed and its own salt, so enabling one kind never
// shifts another's stream. The zero value never fires.
type Fault struct {
	// Prob is the per-input probability the fault fires.
	Prob float64
	// Fixed lists inputs at which the fault always fires, whatever Prob:
	// the kill-and-restart suite hits every boundary in turn with it, and a
	// sustained outage or full disk is a run of consecutive inputs.
	Fixed []uint64
}

// at reports whether f fires at input x under (seed, salt): the package's
// one "fixed list or draw" predicate.
func (f Fault) at(seed, salt, x uint64) bool {
	return slices.Contains(f.Fixed, x) || hit(f.Prob, seed, salt, x)
}

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
	Fault
}

// At reports whether the schedule crashes the controller at boundary sw.
func (c CrashSchedule) At(sw uint64) bool { return c.at(c.Seed, 0, sw) }
