// Package faults is a seeded, deterministic fault-injection layer for the
// delivery paths between switches and the controller. Real deployments
// lose, duplicate, reorder, delay, truncate and corrupt datagrams; the
// collect-and-reset reliability protocol (§8) only deserves trust if it is
// exercised under exactly those conditions. An Injector draws every fault
// decision from one seeded PRNG in a fixed per-event order, so a given
// (seed, event sequence) pair always yields the same fault schedule — a
// chaos run is a reproducible test case, not a flake.
//
// An injector sits on one of two delivery paths:
//
//   - the AFR emissions a deployment sends its controller — one key's
//     records from the switch, or one retransmit packet — via Packet
//     (drop/duplicate of simulated packets; the root test plan's afrFaults);
//   - wire datagrams, via Datagrams and Flush (drop/duplicate/reorder/
//     delay/truncate/corrupt; examples/udpcollector wraps its uplink so).
//
// Faults decided at boundaries or per operation rather than per event —
// controller crashes, RDMA verb and QP errors, disk faults, and the lease
// renewals a partition loses — are the stateless schedules in this
// package. Each schedule has one Seed, and every kind that can fire at
// chosen inputs is a Fault drawn under it.
package faults

import (
	"math/rand"
	"sync"
)

// Config is a fault schedule: per-event probabilities for each fault kind,
// all decided by one PRNG seeded with Seed. Zero value = no faults.
type Config struct {
	// Seed seeds the decision PRNG; schedules are deterministic per seed.
	Seed int64

	// Drop is the probability an event (datagram or packet) is silently
	// discarded.
	Drop float64
	// Duplicate is the probability an event is delivered twice (real
	// networks duplicate on retransmitting links and route flaps).
	Duplicate float64
	// MaxDuplicates bounds extra copies per duplication event (default 1).
	MaxDuplicates int

	// Reorder is the probability a datagram is parked and released only
	// after up to ReorderDepth later sends, arriving out of order.
	Reorder float64
	// ReorderDepth is the maximum number of later sends a parked datagram
	// waits behind (default 4).
	ReorderDepth int

	// Delay is the probability a datagram arrives late. On a byte stream
	// delay manifests as reordering, so a delayed datagram is parked like
	// a reordered one.
	Delay float64

	// Truncate is the probability a datagram loses its tail in flight.
	Truncate float64
	// Corrupt is the probability one bit of a datagram flips in flight.
	Corrupt float64
}

// Stats counts the injected faults so tests can assert a schedule actually
// exercised the recovery path.
type Stats struct {
	Events     int // fault decisions taken (one per datagram/packet)
	Dropped    int
	Duplicated int // extra copies injected
	Reordered  int // datagrams parked for out-of-order release
	Delayed    int
	Truncated  int
	Corrupted  int
}

// PacketAction is the fate of one in-flight simulated packet (an object,
// not bytes: truncation/corruption do not apply).
type PacketAction struct {
	Drop       bool
	Duplicates int
}

// decision is one event's full fault draw. Every field is drawn on every
// event — even for fault kinds with probability zero — so enabling one
// fault never shifts the PRNG stream of another.
type decision struct {
	drop       bool
	dup        int
	reorder    bool
	hold       int
	delay      bool
	truncate   bool
	truncFrac  float64
	corrupt    bool
	corruptPos float64
	corruptBit uint8
}

// Injector draws fault decisions from a seeded PRNG. Safe for concurrent
// use; determinism holds for a deterministic order of calls.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	stats  Stats
	parked []parkedDatagram
}

type parkedDatagram struct {
	data []byte
	hold int // sends left to wait behind
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.MaxDuplicates <= 0 {
		cfg.MaxDuplicates = 1
	}
	if cfg.ReorderDepth <= 0 {
		cfg.ReorderDepth = 4
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide draws one event's decision. Caller holds in.mu. The draw order
// and count are fixed regardless of configuration (see decision).
func (in *Injector) decide() decision {
	var d decision
	d.drop = in.rng.Float64() < in.cfg.Drop
	if in.rng.Float64() < in.cfg.Duplicate {
		d.dup = 1 + in.rng.Intn(in.cfg.MaxDuplicates)
	} else {
		in.rng.Intn(in.cfg.MaxDuplicates) // keep the stream aligned
	}
	d.reorder = in.rng.Float64() < in.cfg.Reorder
	d.hold = 1 + in.rng.Intn(in.cfg.ReorderDepth)
	d.delay = in.rng.Float64() < in.cfg.Delay
	d.truncate = in.rng.Float64() < in.cfg.Truncate
	d.truncFrac = in.rng.Float64()
	d.corrupt = in.rng.Float64() < in.cfg.Corrupt
	d.corruptPos = in.rng.Float64()
	d.corruptBit = uint8(in.rng.Intn(8))
	in.rng.Float64() // the retired per-verb draw: keep the stream aligned
	return d
}

// mangle applies truncation/corruption to a copy of data (the input is
// never aliased: senders reuse their buffers). Caller holds in.mu.
func (in *Injector) mangle(data []byte, d decision) []byte {
	out := append([]byte(nil), data...)
	if d.truncate && len(out) > 0 {
		in.stats.Truncated++
		out = out[:int(d.truncFrac*float64(len(out)))]
	}
	if d.corrupt && len(out) > 0 {
		in.stats.Corrupted++
		pos := int(d.corruptPos * float64(len(out)))
		if pos >= len(out) {
			pos = len(out) - 1
		}
		out[pos] ^= 1 << d.corruptBit
	}
	return out
}

// Datagrams pushes one outbound datagram through the schedule and returns
// the datagrams to put on the wire now, in order: surviving copies of this
// datagram (mangled, possibly duplicated, absent when dropped or parked
// for reordering) followed by any previously parked datagrams whose hold
// expired with this send. Call Flush at a delivery barrier to release the
// remaining parked datagrams.
func (in *Injector) Datagrams(data []byte) [][]byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Events++
	d := in.decide()

	var out [][]byte
	switch {
	case d.drop:
		in.stats.Dropped++
	case d.reorder || d.delay:
		if d.reorder {
			in.stats.Reordered++
		} else {
			in.stats.Delayed++
		}
		in.parked = append(in.parked, parkedDatagram{data: in.mangle(data, d), hold: d.hold})
	default:
		b := in.mangle(data, d)
		out = append(out, b)
		for c := 0; c < d.dup; c++ {
			in.stats.Duplicated++
			out = append(out, append([]byte(nil), b...))
		}
	}

	// Age the parked datagrams and release the expired ones after the
	// current send, which is what puts them on the wire out of order.
	kept := in.parked[:0]
	for _, p := range in.parked {
		p.hold--
		if p.hold <= 0 {
			out = append(out, p.data)
		} else {
			kept = append(kept, p)
		}
	}
	in.parked = kept
	return out
}

// Flush releases every parked datagram, in park order. Call it before a
// delivery barrier so reordered datagrams are not withheld forever.
func (in *Injector) Flush() [][]byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out [][]byte
	for _, p := range in.parked {
		out = append(out, p.data)
	}
	in.parked = in.parked[:0]
	return out
}

// Packet decides the fate of one in-flight simulated packet: drop and
// duplicates (delay, reordering, truncation and corruption have no
// object-level meaning and are ignored, though their PRNG draws still
// happen so schedules stay aligned with the byte path).
func (in *Injector) Packet() PacketAction {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Events++
	d := in.decide()
	if d.drop {
		in.stats.Dropped++
		return PacketAction{Drop: true}
	}
	in.stats.Duplicated += d.dup
	return PacketAction{Duplicates: d.dup}
}
