package switchsim

import (
	"fmt"
	"time"

	"omniwindow/internal/packet"
)

// ProgramFunc is the data-plane program installed on a switch: it is
// invoked once per pipeline pass with the packet being processed.
type ProgramFunc func(p *Pass)

// Switch models one RMT switch: a pipeline with resource-accounted
// registers/MATs, a recirculation port, and a clone port to the controller.
type Switch struct {
	// ID identifies the switch in multi-switch topologies.
	ID int
	// Costs is the virtual-time cost model.
	Costs CostModel

	ledger    *Ledger
	feature   string
	nextRegID int
	registers []RegisterRef
	program   ProgramFunc

	// maxPasses bounds recirculation loops to catch runaway programs.
	maxPasses int

	// Per-pass access tracking, generation-stamped to avoid a map
	// allocation per packet.
	passGen    int
	touchedGen []int

	// pass is the one Pass every Inject reuses; its emission buffers back
	// the returned Output (see Output for the lifetime rule).
	pass Pass
}

// New creates a switch with the default capacity and cost model.
func New(id int) *Switch {
	return NewWithCapacity(id, DefaultCapacity(), DefaultCosts())
}

// NewWithCapacity creates a switch with explicit capacity and costs.
func NewWithCapacity(id int, capacity Capacity, costs CostModel) *Switch {
	return &Switch{
		ID:        id,
		Costs:     costs,
		ledger:    NewLedger(capacity),
		feature:   "uncategorized",
		maxPasses: 1 << 22,
		pass: Pass{
			forward:      make([]*packet.Packet, 0, retainCap),
			toController: make([]*packet.Packet, 0, retainCap),
		},
	}
}

// Ledger exposes the resource ledger for Exp#5 reporting.
func (sw *Switch) Ledger() *Ledger { return sw.ledger }

// SetFeature attributes subsequent allocations to the named feature
// (paper Table 2 rows: "Signal", "Consistency model", ...).
func (sw *Switch) SetFeature(name string) { sw.feature = name }

// AllocMAT books the SRAM, VLIW slots and gateways of a match-action table
// under the current feature. MATs are stateless here: their behaviour lives
// in the program callback; this call keeps the resource model honest.
func (sw *Switch) AllocMAT(name string, stage, sramKB, vliws, gateways int) error {
	if err := sw.ledger.charge(sw.feature, stage, Resources{SRAMKB: sramKB, VLIWs: vliws, Gateways: gateways}); err != nil {
		return fmt.Errorf("alloc MAT %q: %w", name, err)
	}
	return nil
}

// SetProgram installs the data-plane program.
func (sw *Switch) SetProgram(f ProgramFunc) { sw.program = f }

// Registers lists all allocated registers (used by reset enumeration).
func (sw *Switch) Registers() []RegisterRef {
	return append([]RegisterRef(nil), sw.registers...)
}

// Output is everything one Inject produced, with its virtual-time cost.
//
// Lifetime: Forward and ToController are buffers the switch owns and
// reuses. They are valid until the next Inject on the same switch, which
// overwrites them; a caller that needs the slices longer copies them. The
// packets they point to are not reused: a clone handed to the controller
// stays intact for as long as the caller keeps the pointer.
type Output struct {
	// Forward are the packets leaving on egress ports (normal traffic).
	Forward []*packet.Packet
	// ToController are the packets a program cloned to the controller
	// port (CloneToController): the UDP collector example's triggers,
	// and the AFR engine's AFRs when it has no record port.
	// The omniwindow deployment clones nothing; its program hands the
	// controller records instead.
	ToController []*packet.Packet
	// Passes is the number of pipeline traversals, 1 + recirculations.
	Passes int
	// Latency is the modeled time from ingress to the last emission.
	Latency time.Duration
}

// Pass is one traversal of the pipeline by one packet. It enforces the RMT
// constraints: each register is accessed at most once, and accesses must
// proceed in non-decreasing stage order (feed-forward pipeline).
type Pass struct {
	sw *Switch
	// Pkt is the packet being processed; programs mutate its OW header.
	// It may be a scratch packet its owner overwrites for the next Inject:
	// a program that wants to keep it (or emit a copy) clones it, and does
	// not hold the Pass itself past the call.
	Pkt *packet.Packet

	lastStage int

	// forward and toController accumulate over all passes of one Inject.
	forward      []*packet.Packet
	toController []*packet.Packet
	recirculate  bool
	dropped      bool
}

// retainCap bounds the emission-buffer capacity a switch keeps between
// Injects. A per-packet pass emits a handful of packets; a collection
// packet emits one AFR clone per tracked key, and a buffer grown to that
// size is released rather than carried through every per-packet Inject
// that follows.
const retainCap = 16

// recycle empties an emission buffer for the next Inject: stale pointers
// are cleared so the switch pins no packet of an earlier Inject, and a
// boundary-sized backing array is dropped (its last Output still owns it).
func recycle(buf []*packet.Packet) []*packet.Packet {
	if cap(buf) > retainCap {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// touch records an access to a register and panics on constraint
// violations — these are bugs in the "P4 program", not runtime conditions.
func (p *Pass) touch(h *regHeader, idx int) {
	if idx < 0 || idx >= h.entries {
		panic(fmt.Sprintf("switchsim: register %q index %d out of range [0,%d) — the address MAT computed a bad offset", h.name, idx, h.entries))
	}
	if p.sw.touchedGen[h.id] == p.sw.passGen {
		panic(fmt.Sprintf("switchsim: register %q accessed twice in one pass — a SALU can reach one location per packet (C4); recirculate or restructure", h.name))
	}
	if h.stage < p.lastStage {
		panic(fmt.Sprintf("switchsim: register %q in stage %d accessed after stage %d — RMT pipelines are feed-forward", h.name, h.stage, p.lastStage))
	}
	p.sw.touchedGen[h.id] = p.sw.passGen
	p.lastStage = h.stage
}

// Touch books an access to a register without reading it. The sketch
// adapters use it so algorithm state kept in Go structs still obeys and
// exercises the single-access rule.
func (p *Pass) Touch(r RegisterRef, idx int) { p.touch(r.header(), idx) }

// CloneToController emits a copy of pkt on the CPU/controller port. The
// clone engine is independent of the egress port, so cloning does not
// consume the packet.
func (p *Pass) CloneToController(pkt *packet.Packet) {
	p.toController = append(p.toController, pkt)
}

// Emit forwards an extra packet (used by multicast-style behaviour).
func (p *Pass) Emit(pkt *packet.Packet) { p.forward = append(p.forward, pkt) }

// Recirculate sends the current packet back to ingress for another pass.
func (p *Pass) Recirculate() { p.recirculate = true }

// Drop consumes the current packet.
func (p *Pass) Drop() { p.dropped = true }

// Inject runs the packet through the pipeline, following recirculations
// until the packet leaves, and returns everything emitted plus the modeled
// latency. The recirculation port is hard-wired and independent of front
// ports, so recirculating packets do not steal bandwidth from normal
// traffic (paper §4.2).
func (sw *Switch) Inject(pkt *packet.Packet) Output {
	pass := &sw.pass
	pass.forward, pass.toController = recycle(pass.forward), recycle(pass.toController)
	passes := 1
	if sw.program == nil {
		pass.forward = append(pass.forward, pkt)
	} else {
		if len(sw.touchedGen) < sw.nextRegID {
			sw.touchedGen = make([]int, sw.nextRegID)
		}
		pass.sw, pass.Pkt = sw, pkt
		for ; ; passes++ {
			if passes > sw.maxPasses {
				panic(fmt.Sprintf("switchsim: packet exceeded %d passes — runaway recirculation loop", sw.maxPasses))
			}
			sw.passGen++
			pass.lastStage = 0
			pass.recirculate = false
			pass.dropped = false
			sw.program(pass)
			if !pass.recirculate {
				break
			}
		}
		pass.Pkt = nil
		if !pass.dropped {
			pass.forward = append(pass.forward, pkt)
		}
	}
	return Output{
		Forward:      pass.forward,
		ToController: pass.toController,
		Passes:       passes,
		Latency:      time.Duration(passes) * sw.Costs.PipelinePass,
	}
}
