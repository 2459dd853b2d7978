package switchsim

import "fmt"

// regHeader carries the identity and placement of a register, shared by all
// generic Register instantiations so a Pass can track accesses uniformly.
type regHeader struct {
	name    string
	stage   int
	id      int
	entries int
}

// Name returns the register's name.
func (h *regHeader) Name() string { return h.name }

// Stage returns the pipeline stage the register (and its SALU) lives in.
func (h *regHeader) Stage() int { return h.stage }

// Entries returns the number of entries in the register.
func (h *regHeader) Entries() int { return h.entries }

// header lets Register[T] satisfy interfaces that need the shared header.
func (h *regHeader) header() *regHeader { return h }

// RegisterRef is the type-erased view of a register used for access
// tracking and reset enumeration.
type RegisterRef interface {
	header() *regHeader
	Name() string
	Stage() int
	Entries() int
}

// Register is an on-chip stateful memory block served by one SALU. The
// entry type T models the (possibly paired) register width; resource
// accounting uses the byte width declared at allocation.
type Register[T any] struct {
	regHeader
	data []T
}

// AllocRegister allocates a register of `entries` entries of `widthBytes`
// each in `stage`, booking SRAM and one SALU to the switch's current
// feature. It returns an error when the stage budget is exhausted, which is
// exactly the condition that forbids naive per-sub-window state copies (C3).
func AllocRegister[T any](sw *Switch, name string, stage, entries, widthBytes int) (*Register[T], error) {
	kb := (entries*widthBytes + 1023) / 1024
	if err := sw.ledger.charge(sw.feature, stage, Resources{SRAMKB: kb, SALUs: 1}); err != nil {
		return nil, fmt.Errorf("alloc register %q: %w", name, err)
	}
	r := &Register[T]{
		regHeader: regHeader{name: name, stage: stage, id: sw.nextRegID, entries: entries},
		data:      make([]T, entries),
	}
	sw.nextRegID++
	sw.registers = append(sw.registers, r)
	return r, nil
}

// Read returns entry idx. It counts as the register's single access in
// this pass.
func Read[T any](p *Pass, r *Register[T], idx int) T {
	p.touch(&r.regHeader, idx)
	return r.data[idx]
}

// Write stores v into entry idx. It counts as the register's single access
// in this pass.
func Write[T any](p *Pass, r *Register[T], idx int, v T) {
	p.touch(&r.regHeader, idx)
	r.data[idx] = v
}

// ReadWrite applies fn to entry idx and stores the result, returning the
// new value — the read-modify-write a SALU performs in one access.
func ReadWrite[T any](p *Pass, r *Register[T], idx int, fn func(T) T) T {
	p.touch(&r.regHeader, idx)
	v := fn(r.data[idx])
	r.data[idx] = v
	return v
}

// Peek reads entry idx outside any pass. Only the test/verification
// harness and the switch-OS model may use it; data-plane code must go
// through a Pass.
func (r *Register[T]) Peek(idx int) T { return r.data[idx] }

// Poke writes entry idx outside any pass (switch-OS configuration writes).
func (r *Register[T]) Poke(idx int, v T) { r.data[idx] = v }
