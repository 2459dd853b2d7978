package controller

import (
	"math/bits"
	"slices"
	"sync"

	"omniwindow/internal/metrics"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
)

// seqSet tracks the AFR sequence numbers seen in one sub-window. Switch
// sequence spaces are dense (0..expected-1), so the set is a growable
// bitset — one bit per record where the map it replaced paid tens of bytes
// per entry — with a spill map for hostile/garbage sequence numbers above
// the dense bound so a single corrupt frame cannot balloon the words
// array. Iteration (export, gap scans) is naturally in ascending order.
type seqSet struct {
	words    []uint64
	n        int
	overflow map[uint32]struct{}
}

// maxDenseSeq bounds the bitset-backed range: 1<<22 sequences cost at most
// 512 KiB of words. Anything above (no real sub-window announces that many
// AFRs) lands in the overflow map.
const maxDenseSeq = 1 << 22

// add inserts seq, reporting whether it was absent.
func (s *seqSet) add(seq uint32) bool {
	if seq >= maxDenseSeq {
		if _, dup := s.overflow[seq]; dup {
			return false
		}
		if s.overflow == nil {
			s.overflow = make(map[uint32]struct{})
		}
		s.overflow[seq] = struct{}{}
		s.n++
		return true
	}
	w := int(seq >> 6)
	if w >= len(s.words) {
		// The region [len, cap) is zero by construction: words only ever
		// grows (freshly made backing arrays are zeroed, and bits are set
		// only below len), so extending within capacity needs no clearing.
		if need := w + 1; need <= cap(s.words) {
			s.words = s.words[:need]
		} else {
			grown := make([]uint64, need, 2*need)
			copy(grown, s.words)
			s.words = grown
		}
	}
	bit := uint64(1) << (seq & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// reset empties the set, keeping its words zeroed for add to grow into.
func (s *seqSet) reset() {
	clear(s.words)
	*s = seqSet{words: s.words[:0]}
}

// has reports whether seq is in the set.
func (s *seqSet) has(seq uint32) bool {
	if seq >= maxDenseSeq {
		_, ok := s.overflow[seq]
		return ok
	}
	w := int(seq >> 6)
	return w < len(s.words) && s.words[w]&(1<<(seq&63)) != 0
}

// appendMissing appends to dst, ascending, every sequence in
// [0, expected) the set lacks. The dense range is scanned a word at a
// time, a full word skipped whole; past it, each sequence is one overflow
// lookup.
func (s *seqSet) appendMissing(dst []uint32, expected int) []uint32 {
	dense := min(expected, maxDenseSeq)
	for w := 0; w<<6 < dense; w++ {
		miss := ^uint64(0)
		if w < len(s.words) {
			miss = ^s.words[w]
		}
		if rest := dense - w<<6; rest < 64 {
			miss &= 1<<rest - 1
		}
		for ; miss != 0; miss &= miss - 1 {
			dst = append(dst, uint32(w<<6+bits.TrailingZeros64(miss)))
		}
	}
	for seq := maxDenseSeq; seq < expected; seq++ {
		if _, ok := s.overflow[uint32(seq)]; !ok {
			dst = append(dst, uint32(seq))
		}
	}
	return dst
}

// countMissing is len(appendMissing(nil, expected)): a population count
// per word of the dense range, one pass over the overflow sequences past
// it.
func (s *seqSet) countMissing(expected int) int {
	if expected <= 0 {
		return 0
	}
	dense := min(expected, maxDenseSeq)
	n := dense
	for w, word := range s.words[:min(len(s.words), (dense+63)>>6)] {
		if rest := dense - w<<6; rest < 64 {
			word &= 1<<rest - 1
		}
		n -= bits.OnesCount64(word)
	}
	if expected > maxDenseSeq {
		n += expected - maxDenseSeq
		for seq := range s.overflow {
			if int(seq) < expected {
				n--
			}
		}
	}
	return n
}

// size is the number of distinct sequences added.
func (s *seqSet) size() int { return s.n }

// appendSorted appends every sequence in ascending order — bitset words
// iterate sorted by construction, and every overflow sequence is above the
// dense bound, so the concatenation is fully sorted. Snapshot encoding
// depends on this determinism.
func (s *seqSet) appendSorted(dst []uint32) []uint32 {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, uint32(w<<6+b))
			word &^= 1 << b
		}
	}
	if len(s.overflow) > 0 {
		start := len(dst)
		for seq := range s.overflow {
			dst = append(dst, seq)
		}
		slices.Sort(dst[start:])
	}
	return dst
}

// spikeID identifies one latency-spike packet copy within its stamped
// sub-window: the flow key plus the packet-level sequence number. Link
// faults can duplicate a spike copy, and several downstream switches of
// one path may each clone the same late packet toward a shared controller;
// the ID makes every copy merge exactly once.
type spikeID struct {
	key packet.FlowKey
	seq uint32
}

// subWindow is the ledger's record of one sub-window — everything the
// controller knows about it besides its AFRs — shared by every shard: open
// while it collects, finished once its finish has settled (one-way),
// retired (deleted) by the prune that runs with O5. mu guards every field
// and is taken after Controller.mu, never before.
type subWindow struct {
	mu       sync.Mutex
	finished bool

	// Live delivery accounting, from the first trigger or AFR (arrived)
	// until the finish: sequence numbers seen (§8 duplicate suppression),
	// announced key count (-1 while unknown), sequences whose first
	// arrival was a retransmission, records admission control shed.
	arrived   bool
	seen      seqSet
	expected  int
	recovered int
	shed      int

	// Software-path spike copies: the dedup set, and their count, which
	// outlives the finish for window-level SpikePackets.
	spikeSeen map[spikeID]bool
	spikes    int

	// rel is what window assembly reads, valid when charged: the frozen
	// accounting once finished, before that any NoteLost pre-charge.
	charged bool
	rel     metrics.Reliability
}

// reliability is the record's delivery accounting: live while the
// sub-window collects, rel otherwise, Expected -1 when neither exists.
// Caller holds r.mu.
func (r *subWindow) reliability() metrics.Reliability {
	if !r.arrived || r.finished {
		if r.charged {
			return r.rel
		}
		return metrics.Reliability{Expected: -1}
	}
	return metrics.Reliability{
		Expected: r.expected, Received: r.seen.size(), Recovered: r.recovered,
		Missing: r.seen.countMissing(r.expected), Shed: r.shed,
	}
}

// finish is the open → finished transition: the live accounting is frozen
// on top of any pre-charge and the dedup sets are released.
func (r *subWindow) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.arrived && !r.finished {
		rel := r.reliability()
		rel.Missing += r.rel.Missing
		r.rel, r.charged = rel, true
	}
	r.finished = true
	r.seen, r.spikeSeen = seqSet{}, nil
}

// addTo folds the record's accounting into a window spanning it.
func (r *subWindow) addTo(res *WindowResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.MissingAFRs += r.rel.Missing
	res.ShedAFRs += r.rel.Shed
	if r.rel.Shed > 0 && r.rel.Missing > 0 {
		res.Degraded = true
	}
	if r.finished {
		res.SpikePackets += r.spikes
	}
}

// recordFor returns sub-window sw's record, creating it on first use; one
// created at or below lastFin is born finished. Caller holds c.mu.
func (c *Controller) recordFor(sw uint64) *subWindow {
	r := c.ledger[sw]
	if r == nil {
		r = &subWindow{expected: -1, finished: c.hasFin && sw <= c.lastFin}
		c.ledger[sw] = r
	}
	return r
}

// open returns sub-window sw's record, locked, for an arrival — or nil
// when sw has finished. This is where late arrivals are turned away: a
// duplicate datagram or retransmitted trigger must not resurrect arrival
// state beside the retained accounting (it would advertise gaps a driver
// then NACKs, and leak into checkpoints). The caller unlocks the record.
// next reports that sw is LastFinished()+1, the sub-window the next finish
// takes; before the first finish no sub-window is next, since that finish
// may take any.
func (c *Controller) open(sw uint64) (r *subWindow, next bool) {
	c.mu.Lock()
	if c.hasFin && sw <= c.lastFin {
		c.mu.Unlock()
		return nil, false
	}
	r, next = c.recordFor(sw), c.hasFin && sw == c.lastFin+1
	c.mu.Unlock()
	r.mu.Lock()
	if r.finished { // the finish settled between the two locks
		r.mu.Unlock()
		return nil, false
	}
	return r, next
}

// record returns sub-window sw's record, or nil if the ledger has none.
func (c *Controller) record(sw uint64) *subWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger[sw]
}

// SpikePackets reports the number of spike copies merged so far for a
// sub-window (live state while open, the final count after finishing, 0
// once retired or never seen).
func (c *Controller) SpikePackets(sw uint64) int {
	r := c.record(sw)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spikes
}

// MissingSeqs reports AFR sequence numbers the controller has not received
// for a sub-window, given the key count announced by the trigger packet.
// It returns nil when nothing is known to be missing (§8, reliability) or
// the sub-window has finished.
func (c *Controller) MissingSeqs(sw uint64) []uint32 {
	r := c.record(sw)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return nil
	}
	return r.seen.appendMissing(nil, r.expected)
}

// Reliability reports a sub-window's AFR delivery accounting: live state
// while the sub-window is still collecting, the final snapshot after
// FinishSubWindow, and a zero-value "never heard of it" record (Expected
// -1) otherwise.
func (c *Controller) Reliability(sw uint64) metrics.Reliability {
	r := c.record(sw)
	if r == nil {
		return metrics.Reliability{Expected: -1}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reliability()
}

// NoteShed charges n AFRs bound for sub-window sw that were dropped
// unread: in a Deployment only by the RDMA transport and WAL replay, in
// examples/udpcollector by admission control. Notes for a collecting
// sub-window flow into its final accounting, notes for a finished one
// amend the retained snapshot (emitted windows do not change), and one
// for a sub-window nothing has arrived for only counts.
func (c *Controller) NoteShed(sw uint64, n int) {
	if n <= 0 {
		return
	}
	c.obs.Shed.Add(int64(n))
	c.obs.Ring.Record(obs.StageShed, sw, -1, int64(n))
	r := c.record(sw)
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.arrived && !r.finished {
		r.shed += n
	} else if r.charged {
		r.rel.Shed += n
	}
}

// NoteLost records that n units of a sub-window's durable record are
// unrecoverable (quarantined WAL segments, a degraded-durability gap a
// promotion cannot replay). Unlike shed — which is pressure the live path
// already accounted — lost is damage: it always lands in the sub-window's
// Missing tally, creating the record if the sub-window was never
// announced, so every window spanning it assembles as Incomplete instead
// of silently wrong — open or finished alike: the finish folds a
// pre-charge in.
func (c *Controller) NoteLost(sw uint64, n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	r := c.recordFor(sw)
	c.mu.Unlock()
	r.mu.Lock()
	r.rel.Missing += n
	r.charged = true
	r.mu.Unlock()
}
