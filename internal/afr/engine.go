package afr

import (
	"fmt"

	"omniwindow/internal/packet"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// Attr is the application-derived attribute of one flow in one sub-window:
// the scalar value plus, for Distinction apps, a distinct-count summary
// (zero: none; see packet.Summary).
type Attr struct {
	Value   uint64
	Summary packet.Summary
}

// StateApp is one memory region's application state — the stateful part of
// a telemetry program for a single sub-window. OmniWindow instantiates one
// StateApp per region and drives measurement, AFR queries and slot-wise
// reset through it.
type StateApp interface {
	// Update processes one packet of the region's active sub-window.
	Update(p *packet.Packet)
	// Query derives the AFR attribute of key k from the region's state
	// (the data-plane flow query of §4.1).
	Query(k packet.FlowKey) Attr
	// ResetSlot zeroes slot i of every register of the region — the work
	// one clear packet performs in one pipeline pass (§4.3).
	ResetSlot(i int)
	// Slots is the number of per-register entries a full reset must
	// enumerate.
	Slots() int
}

// Engine is the switch-side C&R machine: it owns the tracker and the
// per-region StateApps and implements the special-packet handling of
// Algorithm 2 (collection packets), §4.3 (clear packets) and §4.2
// (controller-injected flow keys).
type Engine struct {
	tracker *Tracker
	// apps is indexed [region][app]: one switch can host several
	// co-deployed telemetry applications that share the window mechanism
	// and flowkey tracking while keeping independent state.
	apps    [][]StateApp
	regions window.Regions
	keyOf   func(*packet.Packet) (packet.FlowKey, bool)

	// Collection state for the sub-window currently being collected.
	collecting     bool
	collectSW      uint64
	collectRegion  int
	counter        int
	resetCounter   int
	trackerPending bool
	// parked counts collection packets whose enumeration finished and
	// that wait to be reused as clear packets.
	parked int
	// injected lists the controller-injected keys this collection has
	// queried, in injection order: key i answered sequence number
	// KeyCount+i, and a NACK for it is re-queried from here.
	injected []packet.FlowKey

	// port, when set, takes each collected or injected key's records
	// (SetAFRPort); recs and summ are the scratch slices they and their
	// summaries are built in, reused for every key.
	port func(recs []packet.AFR, summ []packet.Summary)
	recs []packet.AFR
	summ []packet.Summary
}

// NewEngine wires a tracker and one StateApp per region (the single-app
// form; see NewMultiEngine for co-deployed applications).
func NewEngine(tracker *Tracker, apps []StateApp, regions window.Regions) *Engine {
	per := make([][]StateApp, len(apps))
	for i, a := range apps {
		per[i] = []StateApp{a}
	}
	return NewMultiEngine(tracker, per, regions)
}

// NewMultiEngine wires a tracker and, per region, one state instance per
// co-deployed application. All regions must host the same number of apps.
func NewMultiEngine(tracker *Tracker, apps [][]StateApp, regions window.Regions) *Engine {
	if len(apps) != regions.N() {
		panic(fmt.Sprintf("afr: %d state-app regions for %d regions", len(apps), regions.N()))
	}
	n := len(apps[0])
	if n == 0 {
		panic("afr: at least one app per region")
	}
	for r := range apps {
		if len(apps[r]) != n {
			panic("afr: regions host different app counts")
		}
	}
	return &Engine{tracker: tracker, apps: apps, regions: regions}
}

// AppCount returns the number of co-deployed applications.
func (e *Engine) AppCount() int { return len(e.apps[0]) }

// SetKeyFunc installs the application's flowkey definition (§4.1:
// "OmniWindow requires telemetry applications to explicitly specify the
// flowkey definition"). The function maps a packet to the key to track; ok
// = false means the packet contributes no key (e.g. it fails the query's
// filter). The default tracks every packet's 5-tuple.
func (e *Engine) SetKeyFunc(f func(*packet.Packet) (packet.FlowKey, bool)) {
	e.keyOf = f
}

// SetAFRPort installs the record port AFRs leave the switch through: each
// collected or injected key's AppCount() records are built in one
// engine-owned scratch slice and handed to port synchronously, inside the
// pipeline pass that queried them, with their summaries in a parallel
// slice that is empty when no app filled one (packet.Summary). Both are
// valid only during the call — they are reused for the next key — so a
// port that keeps them copies them. With a port set the engine clones
// nothing to Output.ToController, and a program that hands its other
// controller-bound items over as records too (the omniwindow deployment:
// spilled keys, latency spikes) leaves ToController empty.
func (e *Engine) SetAFRPort(port func(recs []packet.AFR, summ []packet.Summary)) {
	e.port = port
}

// Tracker returns the flowkey tracker.
func (e *Engine) Tracker() *Tracker { return e.tracker }

// App returns the region's first application state (single-app form).
func (e *Engine) App(region int) StateApp { return e.apps[region][0] }

// maxSlots returns the largest reset-slot count among a region's apps.
func (e *Engine) maxSlots(region int) int {
	m := 0
	for _, a := range e.apps[region] {
		if a.Slots() > m {
			m = a.Slots()
		}
	}
	return m
}

// Update records a normal packet into the given region, tracking its flow
// key (Algorithm 1). It returns spill=true when the key must be cloned to
// the controller because the flowkey array is full; spillKey is the key to
// send.
func (e *Engine) Update(region int, p *packet.Packet) (spillKey packet.FlowKey, spill bool) {
	k, ok := p.Key, true
	if e.keyOf != nil {
		k, ok = e.keyOf(p)
	}
	if ok {
		_, spill = e.tracker.Track(region, k)
	}
	for _, a := range e.apps[region] {
		a.Update(p)
	}
	return k, spill
}

// BeginCollection arms the engine to collect terminated sub-window sw.
// The controller calls it (conceptually, by sending the first collection
// packet) after the out-of-order grace period.
func (e *Engine) BeginCollection(sw uint64) {
	e.collecting = true
	e.collectSW = sw
	e.collectRegion = e.regions.Index(sw)
	e.counter = 0
	e.resetCounter = 0
	e.trackerPending = true
	e.parked = 0
	e.injected = e.injected[:0]
}

// Collecting reports whether a C&R round is in progress.
func (e *Engine) Collecting() bool { return e.collecting }

// InjectedKeys returns how many controller-injected keys (§4.2) the
// collection of sub-window sw has queried so far — 0 when sw is not being
// collected. Their AFRs carry the sequence numbers after the region's
// tracked keys, so the count the controller expects is the sum.
func (e *Engine) InjectedKeys(sw uint64) int {
	if !e.collecting || e.collectSW != sw {
		return 0
	}
	return len(e.injected)
}

// ParkedClearPackets returns how many finished collection packets wait to
// be reused as clear packets. The controller releases them (by sending the
// confirmation that all AFRs arrived) and the deployment re-injects them
// with the reset flag.
func (e *Engine) ParkedClearPackets() int { return e.parked }

// HandleSpecial processes OmniWindow control packets inside a pipeline
// pass. It returns true if the packet was consumed as a special packet.
func (e *Engine) HandleSpecial(pass *switchsim.Pass) bool {
	p := pass.Pkt
	switch p.OW.Flag {
	case packet.OWCollection:
		e.handleCollection(pass)
		return true
	case packet.OWReset:
		e.handleReset(pass)
		return true
	case packet.OWInjectKey:
		e.handleInjectedKey(pass)
		return true
	default:
		return false
	}
}

// handleCollection implements Algorithm 2: enumerate fk_buffer, one key
// per pass, emitting each key's AFRs to the controller (emitAFRs). When the
// counter passes the end of the array the packet parks: it is reused as a
// clear packet only after the controller has received every AFR (and any
// controller-injected keys have been queried), because a reset destroys
// the state retransmissions would need (§4.3, §8).
func (e *Engine) handleCollection(pass *switchsim.Pass) {
	p := pass.Pkt
	keys := e.tracker.Keys(e.collectRegion)
	idx := e.counter
	e.counter++
	if idx >= len(keys) {
		e.parked++
		pass.Drop()
		return
	}
	p.OW.Index = uint32(idx)
	e.emitAFRs(pass, keys[idx], uint32(idx))
	// The original keeps recirculating to move the enumeration forward;
	// the records leave on their own, so its header never grows.
	pass.Recirculate()
}

// handleReset implements §4.3: each clear packet zeroes one slot of every
// register of the terminated region per pass, controlled by reset_counter.
func (e *Engine) handleReset(pass *switchsim.Pass) {
	slot := e.resetCounter
	e.resetCounter++
	if slot >= e.maxSlots(e.collectRegion) {
		if e.trackerPending {
			// The last clear packet also retires the tracker's
			// per-region structures (flowkey array + Bloom filter).
			e.tracker.ResetRegion(e.collectRegion)
			e.trackerPending = false
			e.collecting = false
		}
		pass.Drop()
		return
	}
	// One pass resets this slot of every register of every co-deployed
	// app (clear packets touch the same index of all registers).
	for _, a := range e.apps[e.collectRegion] {
		if slot < a.Slots() {
			a.ResetSlot(slot)
		}
	}
	pass.Recirculate()
}

// handleInjectedKey implements the controller-injected flow-key path of
// §4.2: extract the key, query the terminated region, and send the AFR
// back to the controller.
func (e *Engine) handleInjectedKey(pass *switchsim.Pass) {
	e.injected = append(e.injected, pass.Pkt.OW.Key)
	e.emitAFRs(pass, pass.Pkt.OW.Key, pass.Pkt.OW.Index)
	pass.Drop()
}

// emitAFRs sends key k's records toward the controller: through the
// record port when one is set, else as an OWAFR clone of the pass's packet
// that owns its records, which stays intact for as long as its holder
// keeps the pointer (the switchsim.Output lifetime rule). The clone form's
// only caller left is the benchmark ladder's afr.enumerate rung, which
// holds a round's clones.
func (e *Engine) emitAFRs(pass *switchsim.Pass, k packet.FlowKey, seq uint32) {
	if e.port != nil {
		e.recs, e.summ = e.appendAFRs(e.recs[:0], e.summ[:0], k, seq)
		e.port(e.recs, e.summ)
		return
	}
	c := pass.Pkt.Clone()
	c.OW.Flag = packet.OWAFR
	c.OW.AFRs, c.OW.Summaries = e.appendAFRs(make([]packet.AFR, 0, e.AppCount()), nil, k, seq)
	pass.CloneToController(c)
}

// appendAFRs appends one AFR per co-deployed app, queried from the
// collected region's state, to dst, and their summaries to summ, the
// slice parallel to dst (packet.AppendSummaries).
func (e *Engine) appendAFRs(dst []packet.AFR, summ []packet.Summary, k packet.FlowKey, seq uint32) ([]packet.AFR, []packet.Summary) {
	for i, app := range e.apps[e.collectRegion] {
		a := app.Query(k)
		summ = packet.AppendSummary(summ, len(dst), a.Summary)
		dst = append(dst, packet.AFR{Key: k, Attr: a.Value, SubWindow: e.collectSW, Seq: seq, App: uint8(i)})
	}
	return dst, summ
}

// Retransmit re-queries specific sequence indexes of the collected region
// after the controller detected AFR losses (§8, reliability of AFRs): the
// tracked keys, then the keys injected in this collection. It returns the
// records and their parallel summaries (empty when none carries one). It
// must be called before the region is reset.
func (e *Engine) Retransmit(seqs []uint32) ([]packet.AFR, []packet.Summary) {
	keys := e.tracker.Keys(e.collectRegion)
	out := make([]packet.AFR, 0, len(seqs)*e.AppCount())
	var summ []packet.Summary
	for _, s := range seqs {
		switch i := int(s); {
		case i < len(keys):
			out, summ = e.appendAFRs(out, summ, keys[i], s)
		case i-len(keys) < len(e.injected):
			out, summ = e.appendAFRs(out, summ, e.injected[i-len(keys)], s)
		}
	}
	return out, summ
}

// RetransmitPackets answers a NACK: it re-queries the requested sequence
// indexes and wraps the records into OWRetransmit packets, chunked to the
// wire AFR bound, ready to send to the controller. The distinct flag lets
// the controller's delivery accounting tell recoveries from first
// deliveries. The packets' records and summaries are capacity-clipped
// windows onto the slices Retransmit returned.
func (e *Engine) RetransmitPackets(seqs []uint32) []*packet.Packet {
	recs, summ := e.Retransmit(seqs)
	out := make([]*packet.Packet, 0, (len(recs)+wire.MaxAFRsPerDatagram-1)/wire.MaxAFRsPerDatagram)
	for start := 0; start < len(recs); start += wire.MaxAFRsPerDatagram {
		end := min(start+wire.MaxAFRsPerDatagram, len(recs))
		out = append(out, &packet.Packet{OW: packet.OWHeader{
			Flag:         packet.OWRetransmit,
			SubWindow:    e.collectSW,
			HasSubWindow: true,
			AFRs:         recs[start:end:end],
			Summaries:    packet.SummarySlice(summ, start, end),
		}})
	}
	return out
}
