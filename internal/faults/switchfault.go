package faults

// SwitchSchedule describes the failure behaviour of one simulated switch.
// Like CrashSchedule it is boundary-driven and stateless: each fault kind
// hashes (Seed, boundary) under its own salt, so enabling reboots never
// shifts the stall schedule and vice versa. The zero value is a healthy
// switch.
type SwitchSchedule struct {
	// Seed parameterizes both boundary kinds below.
	Seed uint64

	// Reboot fires a power-cycle at matching sub-window boundaries: the
	// switch loses all register state (flowkey trackers, app slots, the
	// sub-window counter and any in-progress collection) and comes back
	// unsynchronized at epoch 0 until it resyncs.
	Reboot Fault

	// Stall makes the switch miss its collection deadline at matching
	// boundaries. The data is not lost — just tardy — and each miss is a
	// health strike: the failure mode quarantine exists to catch.
	Stall Fault

	// ClockDriftPerSub skews the switch's local clock by this many
	// nanoseconds per elapsed sub-window, modelling a slow or fast
	// oscillator. Positive drift runs the clock fast. Timeout-signalled
	// deployments fed through a drifting hop terminate sub-windows early
	// or late relative to the fabric, which the stamping protocol must
	// absorb.
	ClockDriftPerSub int64
}

// Salts of the two boundary kinds: a reboot draws the bare hash a
// CrashSchedule with the same seed draws.
const (
	saltReboot = 0
	saltStall  = 1
)

// RebootAt reports whether the switch power-cycles at boundary sw.
// Nil-safe: a nil schedule is a healthy switch.
func (s *SwitchSchedule) RebootAt(sw uint64) bool {
	return s != nil && s.Reboot.at(s.Seed, saltReboot, sw)
}

// StallAt reports whether the switch misses its collection deadline at
// boundary sw. Nil-safe.
func (s *SwitchSchedule) StallAt(sw uint64) bool {
	return s != nil && s.Stall.at(s.Seed, saltStall, sw)
}

// DriftAt returns the switch's accumulated clock skew after sw elapsed
// sub-windows.
func (s *SwitchSchedule) DriftAt(sw uint64) int64 {
	if s == nil {
		return 0
	}
	return s.ClockDriftPerSub * int64(sw)
}
