// Package switchsim models a reconfigurable match-action (RMT) switch ASIC
// in software. It reproduces the constraints that shape OmniWindow's design
// (paper §2, C1–C4):
//
//   - C1: there is no memory-traversal instruction; the only ways to read
//     state out of the ASIC are per-entry switch-OS reads over PCIe (slow)
//     or recirculating packets that read one entry per pipeline pass;
//   - C2: switches have independent, drifting local clocks;
//   - C3: per-stage SRAM and stateful-ALU budgets are scarce and accounted;
//   - C4: packet processing is single-pass and each SALU may access only
//     one location of its register per pass.
//
// The simulator is synchronous: a driver injects packets and the switch
// returns the resulting forwarded/cloned/recirculated packets together with
// virtual-time costs from the CostModel. No wall-clock time is involved, so
// experiments are deterministic.
package switchsim

import "time"

// CostModel holds the virtual-time costs of data-plane and control-plane
// operations. The defaults are calibrated so the OS-bypass experiments
// (Exp#6, Exp#8) land in the regimes the paper reports: switch-OS C&R in
// seconds, recirculation-based C&R in single-digit milliseconds.
type CostModel struct {
	// PipelinePass is the latency of one full traversal of the pipeline,
	// including the hard-wired recirculation path back to ingress.
	PipelinePass time.Duration
	// RecircSerialize is the extra serialization gap between two
	// recirculated packets sharing the recirculation port.
	RecircSerialize time.Duration
	// OSPerEntryRead is the switch-OS cost to read one register entry via
	// the driver/PCIe/RPC path. The paper measures 2.4 s - 10.3 s to read a
	// Count-Min sketch of 1-4 arrays x 64 K entries, i.e. ~37 us/entry.
	OSPerEntryRead time.Duration
	// OSPerEntryWrite is the switch-OS cost to reset one register entry.
	OSPerEntryWrite time.Duration
	// OSBase is the fixed RPC/driver setup overhead per switch-OS batch.
	OSBase time.Duration
	// DPDKInjectPerKey is the controller cost to craft and inject one
	// flow key into the switch via DPDK (Exp#6 CPC path).
	DPDKInjectPerKey time.Duration
	// DPDKRxPerPacket is the controller cost to receive and parse one
	// AFR-bearing packet over DPDK.
	DPDKRxPerPacket time.Duration
	// AddressLookupPerKey is the controller cost to look up the key-value
	// table address for one key before injecting it (Exp#6 CPC*).
	AddressLookupPerKey time.Duration
	// RDMAWrite is the RNIC-side latency of one RDMA WRITE carrying AFRs;
	// it consumes no controller CPU.
	RDMAWrite time.Duration
	// RDMAInjectPerKey is the controller cost to inject one flow key
	// when the RDMA path handles the responses: doorbell-batched sends
	// with no per-response RX processing make it far cheaper than the
	// DPDK path.
	RDMAInjectPerKey time.Duration
	// ControllerWait is the grace period the controller waits after the
	// trigger packet before starting AFR generation, so the switch can
	// absorb out-of-order packets of the terminated sub-window (§4.2).
	ControllerWait time.Duration
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		PipelinePass:        250 * time.Nanosecond,
		RecircSerialize:     10 * time.Nanosecond,
		OSPerEntryRead:      37 * time.Microsecond,
		OSPerEntryWrite:     12 * time.Microsecond,
		OSBase:              5 * time.Millisecond,
		DPDKInjectPerKey:    180 * time.Nanosecond,
		DPDKRxPerPacket:     60 * time.Nanosecond,
		AddressLookupPerKey: 110 * time.Nanosecond,
		RDMAWrite:           900 * time.Nanosecond,
		RDMAInjectPerKey:    40 * time.Nanosecond,
		ControllerWait:      1 * time.Millisecond,
	}
}

// OSReadTime returns the modeled switch-OS time to read `entries` register
// entries sequentially across `registers` registers. The OS path cannot
// read registers concurrently (Exp#8), so the cost is linear in both.
func (c CostModel) OSReadTime(registers, entries int) time.Duration {
	return c.OSBase + time.Duration(registers)*time.Duration(entries)*c.OSPerEntryRead
}

// OSResetTime returns the modeled switch-OS time to zero `entries` entries
// in each of `registers` registers, sequentially.
func (c CostModel) OSResetTime(registers, entries int) time.Duration {
	return c.OSBase + time.Duration(registers)*time.Duration(entries)*c.OSPerEntryWrite
}

// RecircTime returns the modeled time for `packets` concurrently
// recirculating packets to perform `slots` one-entry-per-pass operations.
// Each pass touches the same entry index of every register in the pipeline
// (that is why, unlike the OS path, the cost does not grow with the number
// of registers — Exp#8).
func (c CostModel) RecircTime(packets, slots int) time.Duration {
	if packets <= 0 || slots <= 0 {
		return 0
	}
	passes := (slots + packets - 1) / packets
	return time.Duration(passes)*c.PipelinePass + time.Duration(packets-1)*c.RecircSerialize
}
