package rdma

import (
	"slices"
	"sync"
	"time"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

// This file is the fault-tolerant transport over the raw verb substrate in
// rdma.go: a queue-pair state machine (RTS → Error → Recovering → RTS)
// with completion-queue error reporting, RNR-style bounded retry for
// transient verb errors, a PSN-sequenced replay window for in-flight loss
// (the controller detects gaps at drain time and NACKs them back), and
// memory-region re-registration with AddressMAT rebuild after QP resets or
// controller failover. When the QP is down or retries exhaust, SendBatch
// routes the verb's records to Fallback and the deployment reroutes them
// through the ordinary packet C&R path mid-sub-window — the controller's
// per-seq dedup makes the handoff exact.
//
// A verb is either a hot record's WRITE or a batch's cold records as one
// append: the fault schedule, the PSN and the replay ring work per verb,
// while fallback is routed and shed and loss are charged per record.
//
// Loss accounting follows the repo-wide contract: every record the
// transport irrecoverably drops (cold-buffer overflow, replay-window
// eviction, invalidation of unreplayable verbs) is charged to the OnShed
// hook — Shed measures pressure whether or not the record is repaired via
// fallback, and Missing measures the damage left after recovery.

// QPState is the queue pair's lifecycle state.
type QPState uint8

const (
	// QPRts: ready to send — verbs flow.
	QPRts QPState = iota
	// QPError: the CQ reported a persistent failure (or the fault
	// schedule fired an async QP error); every send falls back to the
	// packet path until recovery succeeds at a boundary.
	QPError
	// QPRecovering: boundary recovery in progress — the AddressMAT is
	// being invalidated and rebuilt and pending verbs replayed; the
	// state commits back to RTS when the boundary's drain completes.
	QPRecovering
)

var qpStateNames = [...]string{
	QPRts:        "RTS",
	QPError:      "ERROR",
	QPRecovering: "RECOVERING",
}

// String names the state as the QP state gauge and owtop display it.
func (s QPState) String() string {
	if int(s) < len(qpStateNames) {
		return qpStateNames[s]
	}
	return "unknown"
}

// rnrBackoff is the virtual wait before a verb's first retry, doubling per
// attempt (capped at 32× the base). The accumulated wait is charged to the
// C&R budget via TakeRetryWait.
const rnrBackoff = 2 * time.Microsecond

// TransportConfig sizes and parameterizes a Transport.
type TransportConfig struct {
	// Rows, Lanes, BufCap size the registered memory region (hot-key
	// rows × per-sub-window lanes, plus the cold append ring, in records).
	Rows, Lanes, BufCap int
	// VerbRetries is how many RNR-style retries follow a verb's first
	// failed attempt before the CQ error becomes persistent and the QP
	// faults to Error. 0 means the default (3); negative disables
	// retries entirely.
	VerbRetries int
	// ReplayDepth bounds the PSN replay window: how many unacked verbs
	// the transport can replay after in-flight loss or region
	// invalidation. Older verbs are evicted; an evicted unapplied verb's
	// records are permanently lost (charged to OnShed). 0 means the default
	// (8192); any positive depth is honoured exactly, power of two or
	// not.
	ReplayDepth int
	// Faults is the deterministic fault schedule (nil = healthy).
	Faults *faults.RDMASchedule
	// OnShed is charged whenever the transport irrecoverably drops
	// records destined for a sub-window (overflow, eviction,
	// invalidation). Nil ignores the charge.
	OnShed func(sw uint64, n int)
}

// TransportStats counts the transport's fault and recovery events. The
// verb counters count verbs, the record counters records: a batch's cold
// records are one append verb.
type TransportStats struct {
	// VerbErrors / VerbRetries count injected completion errors and the
	// RNR retries they triggered, per verb attempt.
	VerbErrors, VerbRetries int
	// PSNDrops counts verbs lost in flight; Replayed counts the records
	// of verbs re-applied by the NACK/replay loop.
	PSNDrops, Replayed int
	// Overflows counts records the cold ring had no room for.
	Overflows int
	// Lost counts records the transport dropped irrecoverably (they are
	// also charged to OnShed and surface as missing seqs).
	Lost int
	// QPErrors / QPRecoveries count Error transitions and successful
	// boundary recoveries.
	QPErrors, QPRecoveries int
	// MRInvalidations counts schedule-driven region destructions;
	// Reregistrations counts fresh registrations (invalidation or
	// failover); MATRebuilds counts AddressMAT invalidate+rebuild
	// passes (every recovery or re-registration runs one).
	MRInvalidations, Reregistrations, MATRebuilds int
}

// verbState is where a verb in the replay window stands.
type verbState uint8

const (
	// verbApplied: landed in the region, awaiting the drain's ack.
	verbApplied verbState = iota
	// verbUnapplied: lost in flight (a PSN gap) or wiped by invalidation.
	verbUnapplied
	// verbTaken: a tombstone — TakeUnapplied handed the records to the
	// packet path; the slot no longer counts toward the window.
	verbTaken
)

// pendingVerb is one unacked verb in the PSN replay ring. Its PSN is not
// stored: the slot it occupies is its PSN (see Transport.ring). It copies
// none of its records but names them: n records from off, in the cold
// ring for a run that landed there, in the transport's arena once
// stashed. An offset, not a slice, so a grown ring or arena does not keep
// its old array alive through the replay ring.
type pendingVerb struct {
	off, n   uint32
	attempts int32  // highest attempt number drawn so far
	idx      uint64 // verb index parameterizing the fault schedule
	hot      bool
	stashed  bool
	state    verbState
}

// shedRun counts the records of one sub-window in consecutive evictions of
// applied verbs: what a region invalidation before the next drain would
// lose.
type shedRun struct {
	sw uint64
	n  int
}

// hotRow is the transport's bookkeeping for one allocated hot-key row.
type hotRow struct {
	key     packet.FlowKey
	seq     uint32 // true seq of the last write applied this drain interval
	written bool   // on Transport.written
	live    bool   // false once the key is demoted (rows are not reclaimed)
}

// Transport owns the RDMA collection plumbing for one deployment: the
// registered memory region, the RNIC, the switch-side AddressMAT mirror,
// the hot-key row table and the QP state machine. Methods are safe for
// concurrent use (the deployment drives it single-threaded, but metric
// scrapes read state and stats concurrently).
type Transport struct {
	mu  sync.Mutex
	mr  *MemoryRegion
	nic *NIC
	mat *AddressMAT

	state QPState

	rows    map[packet.FlowKey]int // hot key → row base address
	hotRows []hotRow               // indexed by row (base / lanes)
	written []int                  // rows written this drain interval, in first-write order
	hotOut  []packet.AFR           // Drain's hot readback, reused across drains
	run     []packet.AFR           // SendBatch's cold records, gathered for their append verb

	// The PSN replay ring: the verb with PSN p occupies ring[p&(len-1)]
	// while p is inside the span [head, nextPSN) — tested wrap-safe as
	// p-head < nextPSN-head. head is the oldest non-tombstone entry
	// (nextPSN when the window is empty); live counts the span's
	// non-tombstone entries and is what ReplayDepth bounds; unapplied
	// counts the PSN gaps among them.
	ring        []pendingVerb
	head        uint32
	nextPSN     uint32
	live        int
	unapplied   int
	unprotected []shedRun    // applied verbs' records evicted from the window since the last drain
	psnScratch  []uint32     // MissingPSNs' result, reused across calls
	takeScratch []packet.AFR // TakeUnapplied's result, reused across calls

	// arena holds the records of stashed verbs — what did not land in the
	// cold ring — at positions arenaBase+i. Verbs are stashed in PSN order,
	// so positions below arenaLow belong to verbs that left the window; a
	// stash that finds the arena full drops them first once they are at
	// least half of it. The drain empties it.
	arena               []packet.AFR
	arenaBase, arenaLow int

	verbIdx     uint64
	verbRetries int
	replayDepth int
	retryWait   time.Duration

	faults *faults.RDMASchedule
	onShed func(sw uint64, n int)

	stats TransportStats
}

// NewTransport registers a memory region and brings the QP up in RTS.
func NewTransport(cfg TransportConfig) *Transport {
	mr := NewMemoryRegion(cfg.Rows, cfg.Lanes, cfg.BufCap)
	t := &Transport{
		mr:      mr,
		nic:     NewNIC(mr),
		mat:     NewAddressMAT(cfg.Rows),
		rows:    make(map[packet.FlowKey]int),
		hotRows: make([]hotRow, 0, cfg.Rows),
		faults:  cfg.Faults,
		onShed:  cfg.OnShed,
	}
	switch {
	case cfg.VerbRetries < 0:
		t.verbRetries = 0
	case cfg.VerbRetries == 0:
		t.verbRetries = 3
	default:
		t.verbRetries = cfg.VerbRetries
	}
	if t.replayDepth = cfg.ReplayDepth; t.replayDepth <= 0 {
		t.replayDepth = 8192
	}
	ringCap := 1
	for ringCap < t.replayDepth {
		ringCap <<= 1
	}
	t.ring = make([]pendingVerb, ringCap)
	return t
}

// State returns the QP state.
func (t *Transport) State() QPState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Stats returns a snapshot of the fault/recovery counters.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// NIC exposes the RNIC (verb counters for the experiments).
func (t *Transport) NIC() *NIC { return t.nic }

// MATLen reports the AddressMAT's entry count.
func (t *Transport) MATLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mat.Len()
}

// PendingLen reports the replay window's occupancy, in verbs.
func (t *Transport) PendingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// TakeRetryWait returns and resets the accumulated virtual RNR backoff,
// for the deployment to charge to the C&R budget.
func (t *Transport) TakeRetryWait() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.retryWait
	t.retryWait = 0
	return w
}

func (t *Transport) shed(sw uint64, n int) {
	if t.onShed != nil && n > 0 {
		t.onShed(sw, n)
	}
}

// eachSubWindow visits recs as runs of equal sub-windows, in order.
func eachSubWindow(recs []packet.AFR, visit func(sw uint64, n int)) {
	for i, j := 0, 0; i < len(recs); i = j {
		sw := recs[i].SubWindow
		for j = i + 1; j < len(recs) && recs[j].SubWindow == sw; j++ {
		}
		visit(sw, j-i)
	}
}

// lose charges recs as irrecoverably dropped: Lost, and shed per
// sub-window.
func (t *Transport) lose(recs []packet.AFR) {
	t.stats.Lost += len(recs)
	eachSubWindow(recs, t.shed)
}

// Promote installs a hot key: a row is allocated and its base address
// published to the switch-side AddressMAT. Reports false when the row
// table is exhausted (the key stays cold).
func (t *Transport) Promote(k packet.FlowKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.promoteLocked(k)
}

func (t *Transport) promoteLocked(k packet.FlowKey) bool {
	if _, ok := t.rows[k]; ok {
		return true
	}
	base, ok := t.mr.AllocRow()
	if !ok {
		return false
	}
	t.rows[k] = base
	t.hotRows = append(t.hotRows, hotRow{key: k, live: true})
	t.mat.Insert(k, base)
	return true
}

// Demote retires a hot key: the MAT entry is withdrawn so the switch
// sends the key cold again. (The row itself is not reclaimed — the
// allocator is monotonic, matching the switch-side address arithmetic.)
func (t *Transport) Demote(k packet.FlowKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mat.Delete(k)
	if base, ok := t.rows[k]; ok {
		t.hotRows[base/t.mr.Lanes()].live = false
		delete(t.rows, k)
	}
}

// HotRows reports the number of installed hot keys.
func (t *Transport) HotRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// slot returns the ring slot PSN p maps to.
func (t *Transport) slot(p uint32) *pendingVerb {
	return &t.ring[p&uint32(len(t.ring)-1)]
}

// inWindow reports whether PSN p lies inside the span [head, nextPSN).
func (t *Transport) inWindow(p uint32) bool {
	return p-t.head < t.nextPSN-t.head
}

// records returns the records verb e carries, where they are stored now.
func (t *Transport) records(e *pendingVerb) []packet.AFR {
	if e.stashed {
		i := int(e.off) - t.arenaBase
		return t.arena[i : i+int(e.n)]
	}
	return t.mr.buffer[e.off : e.off+e.n]
}

// stash copies recs into the arena and returns their position. Caller
// holds t.mu; recs must not alias the arena.
func (t *Transport) stash(recs []packet.AFR) uint32 {
	if dead := t.arenaLow - t.arenaBase; len(t.arena)+len(recs) > cap(t.arena) && dead > 0 && 2*dead >= len(t.arena) {
		t.arena = t.arena[:copy(t.arena, t.arena[dead:])]
		t.arenaBase = t.arenaLow
	}
	if len(t.arena)+len(recs) > cap(t.arena) {
		// Room for a delivery batch's worth at least: hot WRITEs stash one
		// record at a time.
		t.arena = slices.Grow(t.arena, max(len(recs), 128))
	}
	pos := t.arenaBase + len(t.arena)
	t.arena = append(t.arena, recs...)
	return uint32(pos)
}

// leave retires the verb at head from the window: its stashed records
// become dead arena space.
func (t *Transport) leave(e *pendingVerb) {
	if e.stashed {
		// A tombstone stashed before a re-registration restashed the
		// window ends below arenaLow already.
		t.arenaLow = max(t.arenaLow, int(e.off+e.n))
	}
	t.head++
}

// eachUnapplied visits the window's PSN gaps, oldest first, stopping at
// the last one.
func (t *Transport) eachUnapplied(visit func(p uint32, e *pendingVerb)) {
	for p, left := t.head, t.unapplied; left > 0 && p != t.nextPSN; p++ {
		if e := t.slot(p); e.state == verbUnapplied {
			visit(p, e)
			left--
		}
	}
}

// skipTaken advances head past tombstones to the oldest windowed verb.
func (t *Transport) skipTaken() {
	for t.head != t.nextPSN {
		e := t.slot(t.head)
		if e.state != verbTaken {
			return
		}
		t.leave(e)
	}
}

// track enrolls one sent verb carrying n records at off in the PSN replay
// window, evicting the oldest verb when the window holds ReplayDepth.
// Caller holds t.mu.
func (t *Transport) track(off uint32, n int, hot, stashed bool, idx uint64, attempt int, state verbState) {
	if t.live >= t.replayDepth {
		e := t.slot(t.head)
		if e.state == verbUnapplied {
			// Evicted before ever reaching the region: permanently
			// lost — charged to shed, surfaces as missing seqs.
			t.lose(t.records(e))
			t.unapplied--
		} else {
			// Applied but no longer replayable: lost only if the
			// region is invalidated before the next drain.
			eachSubWindow(t.records(e), t.unprotect)
		}
		t.live--
		t.leave(e)
		t.skipTaken()
	}
	if int(t.nextPSN-t.head) == len(t.ring) {
		// Tombstones between windowed verbs have stretched the span to
		// the ring's capacity with the window not yet full — reachable
		// only by sending on after TakeUnapplied without a Drain, which
		// the deployment never does. Widen the ring rather than evict a
		// verb the window still owes a replay.
		wider := make([]pendingVerb, 2*len(t.ring))
		for p := t.head; p != t.nextPSN; p++ {
			wider[p&uint32(len(wider)-1)] = *t.slot(p)
		}
		t.ring = wider
	}
	*t.slot(t.nextPSN) = pendingVerb{off: off, n: uint32(n), attempts: int32(attempt), idx: idx,
		hot: hot, stashed: stashed, state: state}
	t.nextPSN++
	t.live++
	if state == verbUnapplied {
		t.unapplied++
	}
}

// unprotect counts n evicted applied records of sub-window sw.
func (t *Transport) unprotect(sw uint64, n int) {
	if k := len(t.unprotected); k > 0 && t.unprotected[k-1].sw == sw {
		t.unprotected[k-1].n += n
	} else {
		t.unprotected = append(t.unprotected, shedRun{sw, n})
	}
}

// post allots the next verb index and runs the verb's attempts up to the
// one whose request leaves the requester: each completion error drawn
// before it is an RNR-style retry, backing off in virtual time (charged
// to the C&R budget). It returns the verb index and that attempt, or
// attempt -1 once retries are exhausted: the CQ reports a persistent
// completion error and the QP faults to Error. Caller holds t.mu.
func (t *Transport) post() (idx uint64, attempt int) {
	idx = t.verbIdx
	t.verbIdx++
	backoff := rnrBackoff
	for a := 0; a <= t.verbRetries; a++ {
		if a > 0 {
			t.stats.VerbRetries++
			t.retryWait += backoff
			backoff = min(2*backoff, 32*rnrBackoff)
		}
		if !t.faults.VerbErrorAt(idx, a) {
			return idx, a
		}
		t.stats.VerbErrors++
	}
	t.state = QPError
	t.stats.QPErrors++
	return idx, -1
}

// writeLane applies a hot WRITE of rec into the row at base and records
// it for the drain's readback.
func (t *Transport) writeLane(base int, rec *packet.AFR) {
	if err := t.nic.Write(base+int(rec.SubWindow)%t.mr.Lanes(), rec.Attr); err != nil {
		panic(err) // rows and lanes are the region's own: the address is in range
	}
	t.noteHotWrite(base, rec.Seq)
}

// noteHotWrite records that a WRITE into the row at base applied, so the
// next Drain reads the row back with the record's true sequence number.
func (t *Transport) noteHotWrite(base int, seq uint32) {
	row := base / t.mr.Lanes()
	r := &t.hotRows[row]
	if !r.written {
		r.written = true
		t.written = append(t.written, row)
	}
	r.seq = seq
}

// Route is how SendBatch carried one record.
type Route uint8

const (
	// Fallback: the transport could not take the record (QP down, retries
	// exhausted, or cold-ring overflow); the caller must reroute it
	// through the packet C&R path.
	Fallback Route = iota
	// Cold: carried by the batch's append verb into the cold ring.
	Cold
	// Hot: written into the key's hot row.
	Hot
)

// Send transmits one AFR over the RDMA path. hot reports whether the
// hot-row fast path carried it; delivered=false means the transport could
// not take the record and the caller must reroute it through the packet
// C&R path. It is SendBatch for one record, promoting nothing.
func (t *Transport) Send(rec packet.AFR) (hot, delivered bool) {
	var route [1]Route
	t.SendBatch([]packet.AFR{rec}, []bool{false}, route[:])
	return route[0] == Hot, route[0] != Fallback
}

// SendBatch transmits recs over the RDMA path under one hold of the lock
// and sets routes[i] to how recs[i] went. promote and routes are at least
// as long as recs: when promote[i] is set, recs[i]'s key is installed as
// Promote would, just before recs[i] is classified. A record whose key
// holds a row is a WRITE verb of its own, posted in record order; the
// batch's other records are one append verb, posted after them. The
// steady-state success path performs no allocation.
func (t *Transport) SendBatch(recs []packet.AFR, promote []bool, routes []Route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.run) < len(recs) {
		t.run = make([]packet.AFR, 0, len(recs))
	}
	run := t.run[:0]
	for i := range recs {
		rec := &recs[i]
		if promote[i] {
			t.promoteLocked(rec.Key)
		}
		switch base, hot := t.rows[rec.Key]; {
		case t.state != QPRts:
			routes[i] = Fallback
		case hot:
			routes[i] = t.writeLocked(base, recs[i:i+1])
		default:
			routes[i] = Cold
			run = append(run, *rec)
		}
	}
	t.run = run
	if len(run) == 0 {
		return
	}
	// The run's records that fell back are its tail: walk the routes back.
	for i, left := len(recs)-1, t.appendLocked(run); left > 0; i-- {
		if routes[i] == Cold {
			routes[i] = Fallback
			left--
		}
	}
}

// writeLocked posts one hot record's WRITE verb; rec holds the record.
// The record is stashed: a lane holds one attribute, not the record a
// replay needs.
func (t *Transport) writeLocked(base int, rec []packet.AFR) Route {
	idx, a := t.post()
	if a < 0 {
		return Fallback
	}
	// The request left the requester; in-flight loss surfaces as a PSN
	// gap at the next drain, not as a CQ error.
	state := verbUnapplied
	if t.faults.PSNDropAt(idx, a) {
		t.stats.PSNDrops++
	} else {
		t.writeLane(base, &rec[0])
		state = verbApplied
	}
	t.track(t.stash(rec), 1, true, true, idx, a, state)
	return Hot
}

// appendLocked posts run as one append verb and returns how many of its
// records, counted from its end, fell back. A run lost in flight is
// stashed whole; one that lands is named by its cold-ring offset.
func (t *Transport) appendLocked(run []packet.AFR) (fellBack int) {
	if t.state != QPRts {
		return len(run)
	}
	idx, a := t.post()
	switch {
	case a < 0:
		return len(run)
	case t.faults.PSNDropAt(idx, a):
		t.stats.PSNDrops++
		t.track(t.stash(run), len(run), false, true, idx, a, verbUnapplied)
		return 0
	}
	off, landed := t.nic.AppendRun(run)
	if landed > 0 {
		t.track(uint32(off), landed, false, false, idx, a, verbApplied)
	}
	// Cold-ring overflow: the tail never lands in the region. Charge shed
	// per record and hand it back for the packet path.
	for i := landed; i < len(run); i++ {
		t.stats.Overflows++
		t.shed(run[i].SubWindow, 1)
	}
	return len(run) - landed
}

// BeginBoundary applies boundary-driven faults that strike before a
// sub-window's collection traffic: an async QP error makes every send of
// the upcoming C&R round fall back mid-sub-window.
func (t *Transport) BeginBoundary(sw uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == QPRts && t.faults.QPErrorAt(sw) {
		t.state = QPError
		t.stats.QPErrors++
	}
}

// BeginCollect runs the pre-drain recovery step for boundary sw: a
// scheduled region invalidation destroys applied-but-undrained verbs
// (re-registering the region and marking the replay window for re-apply),
// and a QP in Error attempts recovery — refused during a scheduled
// outage, otherwise transitioning Error → Recovering with the AddressMAT
// invalidated and rebuilt. Recovering commits back to RTS when Drain
// completes the boundary.
func (t *Transport) BeginCollect(sw uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.faults.MRInvalidateAt(sw) {
		t.stats.MRInvalidations++
		t.reregisterLocked()
	}
	if t.state == QPError && !t.faults.OutageAt(sw) {
		t.state = QPRecovering
		t.stats.QPRecoveries++
		t.rebuildMATLocked()
	}
}

// Reregister performs a full memory-region re-registration: a promoted
// standby (or a QP reset) owns fresh memory, so rows are re-allocated,
// the AddressMAT is invalidated and rebuilt with the new addresses, and
// every applied-but-undrained verb is marked for replay into the new
// region. Records that already fell out of the replay window are
// permanently lost and charged to shed.
func (t *Transport) Reregister() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reregisterLocked()
}

func (t *Transport) reregisterLocked() {
	t.stats.Reregistrations++
	// Landed runs die with the cold ring: first stash every windowed
	// verb's records, in PSN order, so the arena keeps that order and what
	// was stashed before is dead.
	low := t.arenaBase + len(t.arena)
	for p := t.head; p != t.nextPSN; p++ {
		if e := t.slot(p); e.state != verbTaken {
			recs := t.records(e)
			e.off, e.stashed = uint32(t.arenaBase+len(t.arena)), true
			t.arena = append(t.arena, recs...)
		}
	}
	t.arenaLow = low
	t.mr.Invalidate()
	// Live rows move down into the fresh region in row order; at most as
	// many rows as were allocated before, so AllocRow cannot run out.
	old := t.hotRows
	t.hotRows = t.hotRows[:0]
	for _, r := range old {
		if !r.live {
			continue
		}
		t.rows[r.key], _ = t.mr.AllocRow()
		t.hotRows = append(t.hotRows, hotRow{key: r.key, live: true})
	}
	t.written = t.written[:0]
	t.rebuildMATLocked()
	// Applied verbs died with the old registration: replay them into the
	// fresh region. Applied verbs already evicted from the replay window
	// cannot come back — their records are lost for good.
	for p := t.head; p != t.nextPSN; p++ {
		if e := t.slot(p); e.state == verbApplied {
			e.state = verbUnapplied
		}
	}
	t.unapplied = t.live
	for _, r := range t.unprotected {
		t.shed(r.sw, r.n)
		t.stats.Lost += r.n
	}
	t.unprotected = t.unprotected[:0]
}

// rebuildMATLocked republishes every hot key's current base address —
// the switch re-resolves hot-key destinations after a recovery or
// re-registration. Caller holds t.mu.
func (t *Transport) rebuildMATLocked() {
	t.stats.MATRebuilds++
	for k, base := range t.rows {
		t.mat.Insert(k, base)
	}
}

// MissingPSNs lists the PSNs of verbs sent but never applied — the gaps
// the controller-side scan detects at collect time — oldest first. It
// feeds controller.RecoverSubWindow as the `missing` hook. The result is
// transport-owned and valid until the next MissingPSNs call; a window
// without gaps returns nil without scanning.
func (t *Transport) MissingPSNs() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.unapplied == 0 {
		return nil
	}
	out := t.psnScratch[:0]
	t.eachUnapplied(func(p uint32, _ *pendingVerb) { out = append(out, p) })
	t.psnScratch = out
	return out
}

// Replay re-executes the NACKed PSNs' verbs against the region, redrawing
// each attempt's fate from the fault schedule. A run lands whole or not
// at all: with too little room in the cold ring it stays unapplied for
// the fallback. It returns how many records the applied verbs carried. A
// QP in Error cannot replay (the deployment falls back instead);
// Recovering can — replay is part of recovery.
func (t *Transport) Replay(psns []uint32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == QPError {
		return 0
	}
	applied := 0
	for _, psn := range psns {
		if !t.inWindow(psn) {
			continue
		}
		e := t.slot(psn)
		if e.state != verbUnapplied {
			continue
		}
		e.attempts++
		if t.faults.VerbErrorAt(e.idx, int(e.attempts)) {
			t.stats.VerbErrors++
			continue
		}
		if t.faults.PSNDropAt(e.idx, int(e.attempts)) {
			t.stats.PSNDrops++
			continue
		}
		// Unapplied verbs are stashed: their records outlive the ring.
		recs := t.records(e)
		// A hot verb whose key was demoted since it was sent has no row
		// to write: it replays as a cold append.
		if base, hot := t.rows[recs[0].Key]; hot && e.hot {
			t.writeLane(base, &recs[0])
		} else if len(recs) <= t.nic.Room() {
			t.nic.AppendRun(recs)
		} else {
			continue
		}
		e.state = verbApplied
		t.unapplied--
		applied += len(recs)
	}
	t.stats.Replayed += applied
	return applied
}

// TakeUnapplied removes and returns the records whose verbs never
// applied, in PSN order and in order within a verb — the replay budget is
// exhausted (or the QP is down) and the deployment hands them to the
// packet C&R path, mid-sub-window, with their original sequence numbers
// so the controller's dedup keeps the transport switch exact. Their slots
// become tombstones; a window without gaps returns nil without scanning.
// The result is transport-owned and valid until the next TakeUnapplied
// call.
func (t *Transport) TakeUnapplied() []packet.AFR {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.unapplied == 0 {
		return nil
	}
	out := t.takeScratch[:0]
	t.eachUnapplied(func(_ uint32, e *pendingVerb) {
		e.state = verbTaken
		out = append(out, t.records(e)...)
		t.live--
	})
	t.takeScratch = out
	t.unapplied = 0
	t.skipTaken()
	return out
}

// Drain consumes boundary sw's delivered records: the cold ring is handed
// off without a copy and each hot row written this interval is read back,
// in first-write order, from its per-sub-window lane with its true
// enumeration sequence number (then the lane resets for the next
// same-lane sub-window). The replay window acks — any verb still
// unapplied here (the caller already took the fallback set) is
// permanently lost and its records charged to shed, as is a hot write
// whose key was demoted before this drain — and a Recovering QP commits
// back to RTS.
//
// Both returned slices are transport-owned: cold is the ring itself,
// valid until the next send appends over it; hot is the reused readback,
// valid until the next Drain. Consume or copy cold before sending again.
func (t *Transport) Drain(sw uint64) (cold, hot []packet.AFR) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cold = t.nic.Drain()
	lanes := t.mr.Lanes()
	lane := int(sw) % lanes
	hot = t.hotOut[:0]
	for _, row := range t.written {
		r := &t.hotRows[row]
		r.written = false
		if !r.live {
			t.shed(sw, 1)
			t.stats.Lost++
			continue
		}
		base := row * lanes
		hot = append(hot, packet.AFR{Key: r.key, Attr: t.mr.slots[base+lane], SubWindow: sw, Seq: r.seq})
		t.mr.ResetLane(base, lane)
	}
	t.written = t.written[:0]
	t.hotOut = hot
	t.eachUnapplied(func(_ uint32, e *pendingVerb) { t.lose(t.records(e)) })
	t.head, t.live, t.unapplied = t.nextPSN, 0, 0
	t.unprotected = t.unprotected[:0]
	t.arena, t.arenaBase, t.arenaLow = t.arena[:0], 0, 0
	if t.state == QPRecovering {
		t.state = QPRts
	}
	return cold, hot
}
