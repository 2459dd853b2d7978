// Package controller implements the OmniWindow controller: it collects
// AFRs from switches (bypassing switch OSes), stores them in a key-value
// table, merges per-flow statistics across sub-windows, assembles complete
// windows according to the merge plan, answers telemetry queries over the
// merged table, and evicts retired sub-windows (the O1–O5 operations
// measured in Exp#4).
//
// The key-value table is partitioned into Config.Shards hash-sharded
// slices so the O2 insert, O3 merge, O4 query evaluation and O5 eviction
// of FinishSubWindow run across cores, while ingest (Receive/IngestAFRs)
// is safe for concurrent callers and fans records out to their owning
// shard. Shards=1 degenerates to the fully sequential controller; results
// are deterministic and identical for every shard count (see DESIGN.md,
// "Controller concurrency model").
package controller

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/metrics"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/pool"
	"omniwindow/internal/window"
)

// Config parameterizes a controller instance.
type Config struct {
	// Plan maps sub-windows to complete windows.
	Plan window.Plan
	// Kind is the statistic's merge pattern.
	Kind afr.Kind
	// Threshold is the default detection threshold applied to merged
	// values when Detector is nil.
	Threshold uint64
	// Detector optionally overrides threshold detection. It may be
	// called concurrently from shard workers and must be safe for
	// concurrent use (pure predicates are).
	Detector func(k packet.FlowKey, merged uint64) bool
	// DistinctCounter optionally overrides how OR-merged distinct
	// summaries are counted (see afr.DistinctCounter). Like Detector it
	// may be called concurrently and must be a pure function.
	DistinctCounter afr.DistinctCounter
	// CaptureValues copies every flow's merged value into each
	// WindowResult (needed by ARE metrics; costs a table scan).
	CaptureValues bool
	// Shards is the number of partitions of the key-value table. Each
	// shard owns the flows hashing to it and is processed by its own
	// worker during FinishSubWindow. <= 0 defaults to
	// runtime.GOMAXPROCS(0); 1 preserves the exact sequential behaviour
	// (no worker goroutines are spawned).
	Shards int
	// ExpectedFlows hints the per-sub-window flow population, pre-sizing
	// each shard's key-value table and its first pending batch so the
	// warm-up ramp does not rehash/regrow under load. 0 means unknown
	// (tables start empty and size on demand); it never bounds anything.
	ExpectedFlows int
}

// shard owns one partition of the key-value table plus the routed-but-not-
// yet-inserted records for each open sub-window. Its mutex serializes
// concurrent ingest appends against the FinishSubWindow worker that drains
// and merges them; the table is only ever touched by the worker that owns
// the shard, so no per-row locking is needed.
type shard struct {
	mu      sync.Mutex
	table   table
	pending map[uint64][]packet.AFR
	// prevCard is the record count the last finished sub-window drained
	// from this shard. A new sub-window's pending slice is pre-sized from
	// it (steady traffic repeats its cardinality), so appends stay within
	// one pool-classed allocation instead of regrowing per batch.
	prevCard int
	// fin is this shard's share of the finish in progress: its worker
	// fills it, finishOne folds it once the workers are done (finishMu
	// keeps two finishes apart). detected keeps its capacity across
	// windows.
	fin struct {
		insert, merge, scan, evict time.Duration
		detected                   []packet.FlowKey
		values                     map[packet.FlowKey]uint64
	}
}

// pendingFor returns sub-window sw's pending slice, creating it from the
// pool pre-sized to max(hint, prevCard) on first use. Caller holds s.mu
// and must store the appended-to result back into s.pending[sw].
func (s *shard) pendingFor(sw uint64, hint int) []packet.AFR {
	p, ok := s.pending[sw]
	if !ok {
		if hint < s.prevCard {
			hint = s.prevCard
		}
		p = pool.GetAFRs(hint)
	}
	return p
}

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

// has reports whether seq is in the set.
func (s *seqSet) has(seq uint32) bool {
	if seq >= maxDenseSeq {
		_, ok := s.overflow[seq]
		return ok
	}
	w := int(seq >> 6)
	return w < len(s.words) && s.words[w]&(1<<(seq&63)) != 0
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

// dedup is the per-sub-window arrival state shared by every shard: the
// AFR sequence numbers seen so far (duplicate suppression, §8 reliability),
// the key count announced by the trigger packet (-1 when unknown), the
// count of sequences whose first arrival was a retransmission, and the
// count of records admission control shed under overload.
type dedup struct {
	mu        sync.Mutex
	seen      seqSet
	expected  int
	recovered int
	shed      int
}

// OpTimes is the per-sub-window controller time breakdown of Exp#4.
type OpTimes struct {
	// Collect (O1) is the time to receive and parse AFR packets.
	Collect time.Duration
	// Insert (O2) is the time to insert AFRs into the key-value table.
	Insert time.Duration
	// Merge (O3) is the time to fold contributions into merged values.
	Merge time.Duration
	// Process (O4) is the time to evaluate the query over a completed
	// window.
	Process time.Duration
	// Evict (O5) is the time to remove the oldest sub-window(s).
	Evict time.Duration
}

// Total sums all operations.
func (t OpTimes) Total() time.Duration {
	return t.Collect + t.Insert + t.Merge + t.Process + t.Evict
}

// WindowResult is one completed window's output.
type WindowResult struct {
	// Start and End delimit the window's sub-windows, inclusive.
	Start, End uint64
	// Detected are the flows satisfying the query.
	Detected []packet.FlowKey
	// Values are the merged per-flow statistics (nil unless
	// Config.CaptureValues).
	Values map[packet.FlowKey]uint64
	// Incomplete reports that announced AFRs of at least one constituent
	// sub-window never arrived, even after the reliability protocol's
	// bounded retries — the window's statistics are a lower bound, not
	// ground truth, and downstream consumers must not treat the two the
	// same (§8). MissingAFRs counts the absent records.
	Incomplete  bool
	MissingAFRs int
	// ShedAFRs counts records admission control dropped under overload
	// across the window's sub-windows — overload pressure accounting,
	// whether or not the NACK/retransmit path later repaired the gaps.
	ShedAFRs int
	// Degraded reports that load shedding actually damaged this window:
	// at least one constituent sub-window shed records AND still had
	// gaps when the window finalized. A shed-but-fully-recovered window
	// is exact (ShedAFRs > 0, Degraded false); a Degraded window's
	// statistics are a lower bound that overload, not the network,
	// caused — consumers must not read it as ground truth.
	Degraded bool
	// SpikePackets counts latency-spike packets merged into this window's
	// sub-windows through the controller's software path (§5): packets
	// whose stamped sub-window was no longer preserved in the data plane,
	// so their contribution was added to the key-value table directly.
	// Each spike copy is merged exactly once (dedup by flow key + packet
	// sequence per sub-window), so the merged statistics stay exact.
	SpikePackets int
	// DegradedSwitches lists, for network-wide deployments, the switches
	// whose coverage is missing or partial in this window (reboot wiped
	// their uncollected regions, they stamped while unsynced, or they were
	// quarantined). It extends the Degraded contract to the switch plane:
	// non-empty DegradedSwitches implies Degraded, and the window's
	// statistics are a lower bound on the flows those switches carried.
	// The fabric layer fills it; single-switch controllers leave it nil.
	DegradedSwitches []int
}

// Controller assembles windows from AFR batches. Ingest (Receive,
// IngestAFRs) is safe for concurrent callers; FinishSubWindow serializes
// against itself but may run concurrently with ingest.
type Controller struct {
	cfg    Config
	shards []*shard

	// mu guards dedups, times, rel, spikes and spikeDone. Per-shard and
	// per-sub-window state have their own finer locks so concurrent
	// ingest mostly avoids this one.
	mu     sync.Mutex
	dedups map[uint64]*dedup
	times  map[uint64]*OpTimes
	// spikes tracks, per open sub-window, the latency-spike copies merged
	// through the software path (dedup so each copy counts exactly once);
	// spikeDone keeps each finished sub-window's final count until the
	// sub-window retires, for window-level SpikePackets accounting.
	spikes    map[uint64]*spikeState
	spikeDone map[uint64]int
	// rel records each finished sub-window's final delivery accounting
	// (snapshotted by FinishSubWindow before the dedup state retires) so
	// window assembly can mark windows with unrecovered gaps Incomplete.
	rel map[uint64]metrics.Reliability
	// lastFin is the highest sub-window FinishSubWindow has completed
	// (valid only when hasFin). Checkpoints carry it so a restored
	// controller knows which WAL finish records are already applied.
	lastFin uint64
	hasFin  bool

	// finishMu serializes window assembly: FinishSubWindow drains and
	// merges every shard, so two assemblies must not interleave.
	finishMu sync.Mutex

	// scratch recycles ingestBatch's routing/partition workspace. An
	// explicit free list rather than sync.Pool: GC must not drain it, or
	// the zero-allocs/op steady-state gates would flake.
	scratchMu   sync.Mutex
	scratchFree []*ingestScratch

	// obs is the runtime instrumentation handle set (internal/obs). The
	// zero value is disabled: every handle is nil and every call a
	// no-op, keeping the hot path untouched. Install with SetObs.
	obs Obs
}

// NewWithError validates the configuration and builds a controller. An
// invalid merge plan is reported as an error so network-facing callers
// (e.g. the UDP collector path) can reject bad configs without crashing.
func NewWithError(cfg Config) (*Controller, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	c := &Controller{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		dedups:    make(map[uint64]*dedup),
		times:     make(map[uint64]*OpTimes),
		rel:       make(map[uint64]metrics.Reliability),
		spikes:    make(map[uint64]*spikeState),
		spikeDone: make(map[uint64]int),
	}
	perShard := 0
	if cfg.ExpectedFlows > 0 {
		perShard = cfg.ExpectedFlows / cfg.Shards
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			table:    newTable(cfg, perShard),
			pending:  make(map[uint64][]packet.AFR),
			prevCard: perShard,
		}
	}
	return c, nil
}

// New builds a controller. Invalid plans panic: a controller cannot run
// without a window definition. Use NewWithError to handle the failure.
func New(cfg Config) *Controller {
	c, err := NewWithError(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Shards reports the number of key-value table partitions in use.
func (c *Controller) Shards() int { return len(c.shards) }

// TableSize returns the number of flows currently in the key-value table.
func (c *Controller) TableSize() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.table.rows
		s.mu.Unlock()
	}
	return n
}

// shardIndex maps a flow key to its owning shard.
func (c *Controller) shardIndex(k packet.FlowKey) int {
	if len(c.shards) == 1 {
		return 0
	}
	return hashing.Shard(k, len(c.shards))
}

func (c *Controller) dedupFor(sw uint64) *dedup {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.dedups[sw]
	if !ok {
		d = &dedup{expected: -1}
		c.dedups[sw] = d
	}
	return d
}

// ingestScratch is ingestBatch's reusable workspace: the per-record shard
// routing and the per-shard survivor partitions. Slices keep their
// capacity across batches; parts are truncated, never freed.
type ingestScratch struct {
	sis   []int
	parts [][]packet.AFR
}

func (c *Controller) getScratch() *ingestScratch {
	c.scratchMu.Lock()
	n := len(c.scratchFree)
	if n == 0 {
		c.scratchMu.Unlock()
		return &ingestScratch{parts: make([][]packet.AFR, len(c.shards))}
	}
	sc := c.scratchFree[n-1]
	c.scratchFree = c.scratchFree[:n-1]
	c.scratchMu.Unlock()
	return sc
}

func (c *Controller) putScratch(sc *ingestScratch) {
	c.scratchMu.Lock()
	if len(c.scratchFree) < 16 {
		c.scratchFree = append(c.scratchFree, sc)
	}
	c.scratchMu.Unlock()
}

// addCollect charges O1 time to a sub-window (concurrent-safe).
func (c *Controller) addCollect(sw uint64, dt time.Duration) {
	c.mu.Lock()
	t, ok := c.times[sw]
	if !ok {
		t = &OpTimes{}
		c.times[sw] = t
	}
	t.Collect += dt
	c.mu.Unlock()
}

// Times returns the recorded O1–O5 breakdown for a sub-window.
func (c *Controller) Times(sw uint64) OpTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.times[sw]; ok {
		return *t
	}
	return OpTimes{}
}

// Receive ingests one switch-to-controller packet: AFR payloads, trigger
// announcements and spilled flow keys are all accepted (O1). Safe for
// concurrent callers: records fan out to their owning shard.
func (c *Controller) Receive(p *packet.Packet) {
	start := time.Now()
	switch p.OW.Flag {
	case packet.OWAFR, packet.OWRetransmit:
		c.ingestBatch(p.OW.AFRs, p.OW.Flag == packet.OWRetransmit, true)
	case packet.OWTrigger:
		d := c.dedupFor(p.OW.SubWindow)
		d.mu.Lock()
		// Announcements are cumulative knowledge: a retransmitted or
		// post-recovery trigger (e.g. a switch re-terminating against an
		// already-drained data structure announces KeyCount 0) must never
		// lower an expectation a replayed trigger already established —
		// that would erase Missing entries for keys the controller knows
		// it has not received. Keep the max; -1 means "not yet announced".
		if n := int(p.OW.KeyCount); n > d.expected {
			d.expected = n
		}
		d.mu.Unlock()
		c.obs.Ring.Record(obs.StageAnnounced, p.OW.SubWindow, -1, int64(p.OW.KeyCount))
		c.addCollect(p.OW.SubWindow, time.Since(start))
	}
}

// IngestAFRs adds records directly (the RDMA path delivers memory writes,
// not packets). Dedup by sequence still applies. Safe for concurrent
// callers; the batch is hashed lock-free, deduplicated per sub-window,
// then appended to each shard with one lock acquisition per (shard,
// batch).
func (c *Controller) IngestAFRs(recs []packet.AFR) {
	c.ingestBatch(recs, false, false)
}

// ingestBatch is the shared batched ingest under Receive and IngestAFRs:
// route lock-free, dedup with one lock acquisition per run of equal
// sub-windows, then append each shard's survivors under one shard lock
// acquisition per (shard, batch) — where the per-record path took the
// dedup and shard locks once per AFR. retrans marks records arriving via
// the NACK/retransmit path, so recovery accounting counts only sequences
// whose FIRST arrival was a retransmission (a retransmit of a record that
// also arrived normally is a plain duplicate). charge attributes the
// elapsed time to O1 Collect (the packet path; direct RDMA ingest is not
// an O1 receive). recs is not retained: survivors are copied into the
// shard's pending storage.
func (c *Controller) ingestBatch(recs []packet.AFR, retrans, charge bool) {
	if len(recs) == 0 {
		return
	}
	start := time.Now()
	sc := c.getScratch()
	if cap(sc.sis) < len(recs) {
		sc.sis = make([]int, len(recs))
	}
	sis := sc.sis[:len(recs)]
	for i := range recs {
		sis[i] = c.shardIndex(recs[i].Key)
	}
	parts := sc.parts
	var d *dedup
	var dsw uint64
	var admitted, dups, recovered int64
	for i := range recs {
		r := &recs[i]
		if d == nil || r.SubWindow != dsw {
			if d != nil {
				d.mu.Unlock()
				if charge {
					c.addCollect(dsw, time.Since(start))
					start = time.Now()
				}
			}
			d, dsw = c.dedupFor(r.SubWindow), r.SubWindow
			d.mu.Lock()
		}
		if !d.seen.add(r.Seq) {
			dups++
			continue // duplicate delivery
		}
		if retrans {
			d.recovered++
			recovered++
		}
		admitted++
		parts[sis[i]] = append(parts[sis[i]], *r)
	}
	if d != nil {
		d.mu.Unlock()
		if charge {
			c.addCollect(dsw, time.Since(start))
		}
	}
	c.obs.Ingested.Add(admitted)
	c.obs.Duplicates.Add(dups)
	if recovered > 0 {
		c.obs.Recovered.Add(recovered)
	}
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		s := c.shards[si]
		s.mu.Lock()
		// Append runs of equal sub-windows so each run costs one map
		// lookup; pendingFor pre-sizes a new sub-window's slice from the
		// previous one's cardinality.
		for j, k := 0, 0; j < len(part); j = k {
			sw := part[j].SubWindow
			for k = j + 1; k < len(part) && part[k].SubWindow == sw; k++ {
			}
			s.pending[sw] = append(s.pendingFor(sw, k-j), part[j:k]...)
		}
		s.mu.Unlock()
		parts[si] = part[:0]
	}
	c.putScratch(sc)
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

// spikeState is one open sub-window's software-path bookkeeping.
type spikeState struct {
	mu    sync.Mutex
	seen  map[spikeID]bool
	count int
}

func (c *Controller) spikeFor(sw uint64) *spikeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.spikes[sw]
	if !ok {
		s = &spikeState{seen: make(map[spikeID]bool)}
		c.spikes[sw] = s
	}
	return s
}

// IngestSpike merges one latency-spike packet copy through the software
// path (§5): the packet's stamped sub-window is no longer preserved in any
// data-plane region, so its contribution — attr, computed by the caller
// from the application's merge pattern — is added to the key-value table
// directly, attributed to the stamped sub-window. Copies are deduplicated
// by (flow key, packet sequence) per sub-window, so duplicated or
// multiply-cloned spikes merge exactly once. It returns false without
// merging when the packet carries no stamp, when a copy of it was already
// merged, or when the stamped sub-window has already been finished (its
// window is emitted; merging now would silently corrupt later windows
// sharing the table). Safe for concurrent callers.
func (c *Controller) IngestSpike(p *packet.Packet, attr uint64) bool {
	if !p.OW.HasSubWindow {
		return false
	}
	sw := p.OW.SubWindow
	c.mu.Lock()
	finished := c.hasFin && sw <= c.lastFin
	c.mu.Unlock()
	if finished {
		return false
	}
	st := c.spikeFor(sw)
	id := spikeID{key: p.Key, seq: p.Seq}
	st.mu.Lock()
	if st.seen[id] {
		st.mu.Unlock()
		return false
	}
	st.seen[id] = true
	st.count++
	st.mu.Unlock()

	// The contribution enters the owning shard's pending list like an AFR
	// and is folded by the next FinishSubWindow. It deliberately bypasses
	// the AFR sequence dedup: spike packets are not part of the switch's
	// announced per-sub-window sequence space, so they must not consume
	// (or collide with) AFR sequence numbers in loss accounting.
	s := c.shards[c.shardIndex(p.Key)]
	s.mu.Lock()
	s.pending[sw] = append(s.pendingFor(sw, 1), packet.AFR{Key: p.Key, Attr: attr, SubWindow: sw})
	s.mu.Unlock()
	c.obs.Spikes.Inc()
	return true
}

// SpikePackets reports the number of spike copies merged so far for a
// sub-window (live state while open, the final count after finishing, 0
// once retired or never seen).
func (c *Controller) SpikePackets(sw uint64) int {
	c.mu.Lock()
	st, live := c.spikes[sw]
	done, ok := c.spikeDone[sw]
	c.mu.Unlock()
	if live {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.count
	}
	if ok {
		return done
	}
	return 0
}

// MissingSeqs reports AFR sequence numbers the controller has not received
// for a sub-window, given the key count announced by the trigger packet.
// It returns nil when nothing is known to be missing (§8, reliability).
func (c *Controller) MissingSeqs(sw uint64) []uint32 {
	c.mu.Lock()
	d, ok := c.dedups[sw]
	c.mu.Unlock()
	if !ok {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.expected < 0 {
		return nil
	}
	var missing []uint32
	for s := 0; s < d.expected; s++ {
		if !d.seen.has(uint32(s)) {
			missing = append(missing, uint32(s))
		}
	}
	return missing
}

// snapshotReliability reads a dedup's delivery accounting. Caller must
// not hold d.mu.
func snapshotReliability(d *dedup) metrics.Reliability {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := metrics.Reliability{Expected: d.expected, Received: d.seen.size(), Recovered: d.recovered, Shed: d.shed}
	if d.expected >= 0 {
		for s := 0; s < d.expected; s++ {
			if !d.seen.has(uint32(s)) {
				r.Missing++
			}
		}
	}
	return r
}

// Reliability reports a sub-window's AFR delivery accounting: live state
// while the sub-window is still collecting, the final snapshot after
// FinishSubWindow, and a zero-value "never heard of it" record (Expected
// -1) otherwise.
func (c *Controller) Reliability(sw uint64) metrics.Reliability {
	c.mu.Lock()
	d, live := c.dedups[sw]
	rel, done := c.rel[sw]
	c.mu.Unlock()
	if live {
		return snapshotReliability(d)
	}
	if done {
		return rel
	}
	return metrics.Reliability{Expected: -1}
}

// forEachShard runs f once per shard — inline when there is a single
// shard, on a worker goroutine per shard otherwise.
func (c *Controller) forEachShard(f func(i int, s *shard)) {
	if len(c.shards) == 1 {
		f(0, c.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(c.shards))
	for i, s := range c.shards {
		go func(i int, s *shard) {
			defer wg.Done()
			f(i, s)
		}(i, s)
	}
	wg.Wait()
}

// FinishSubWindow inserts the sub-window's batch into the key-value table
// (O2), merges per-flow statistics (O3), and — when a complete window ends
// here per the plan — processes the query (O4) and evicts retired
// sub-windows (O5). It returns the completed windows, usually zero or one
// per call.
//
// Sub-windows finish strictly in order: finishing one that is already
// finished is a no-op, and finishing one beyond lastFin+1 first finishes
// the skipped range. The skips happen when a rebooted switch resyncs past
// sub-windows its new incarnation never observed — without the fill, the
// window boundaries inside the gap would never assemble and, worse, never
// run O5 eviction, so contributions from before the gap would leak into
// the value of every window emitted after it. A filled sub-window that was
// never announced by a trigger is charged one missing AFR, so the window
// spanning it reports Incomplete instead of passing off the data loss as
// an exact result.
//
// All four operations run across shards on a worker pool; per-shard
// durations are summed into the sub-window's OpTimes so Exp#4's breakdown
// reports total CPU work, not wall-clock. Per-shard results are folded
// deterministically (a single packetKeyCmp sort over the concatenated
// detections), so the output is byte-for-byte identical for every shard
// count.
func (c *Controller) FinishSubWindow(sw uint64) []WindowResult {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	c.mu.Lock()
	done, last := c.hasFin, c.lastFin
	c.mu.Unlock()
	if done && sw <= last {
		return nil
	}
	var out []WindowResult
	if done {
		for fill := last + 1; fill < sw; fill++ {
			c.mu.Lock()
			_, announced := c.dedups[fill]
			_, accounted := c.rel[fill]
			if !announced && !accounted {
				// Nothing was ever announced for this sub-window: its
				// data died with the switch. Record the loss so the
				// spanning window is marked Incomplete.
				c.rel[fill] = metrics.Reliability{Missing: 1}
			}
			c.mu.Unlock()
			out = append(out, c.finishOne(fill)...)
		}
	}
	return append(out, c.finishOne(sw)...)
}

// finishOne runs the four finish operations for a single sub-window.
// Caller holds finishMu and has established that sw is the next
// sub-window in finish order.
func (c *Controller) finishOne(sw uint64) []WindowResult {
	finStart := time.Now()
	// O2 + O3 per shard: drain the routed records, fold them into the
	// sub-window's column, merge the column. A sub-window no window covers
	// (subsampling plans) is accounted like any other but never reaches
	// the table: nothing would read it, and the retire that should have
	// covered it has already run.
	covered := c.cfg.Plan.Covers(sw)
	c.forEachShard(func(_ int, s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		recs := s.pending[sw]
		delete(s.pending, sw)

		start := time.Now()
		if covered {
			s.table.insert(sw, recs)
		}
		s.fin.insert = time.Since(start)

		start = time.Now()
		if covered {
			s.table.merge(sw)
		}
		s.fin.merge = time.Since(start)

		// The drained slice's job is done (the records were folded into
		// the column): remember its cardinality to pre-size the next
		// sub-window, then recycle it.
		s.prevCard = len(recs)
		pool.PutAFRs(recs)
	})

	c.mu.Lock()
	t, ok := c.times[sw]
	if !ok {
		t = &OpTimes{}
		c.times[sw] = t
	}
	var o2sum, o3sum time.Duration
	for _, s := range c.shards {
		t.Insert += s.fin.insert
		t.Merge += s.fin.merge
		o2sum += s.fin.insert
		o3sum += s.fin.merge
	}
	// Snapshot the final delivery accounting before retiring the dedup
	// state: window assembly needs to know whether recovery left gaps.
	if d, live := c.dedups[sw]; live {
		c.mu.Unlock()
		rel := snapshotReliability(d)
		c.mu.Lock()
		// NoteLost may have pre-charged damage (quarantined WAL frames)
		// against a still-open sub-window; fold it into the dedup's final
		// snapshot instead of overwriting it.
		if prior, ok := c.rel[sw]; ok {
			rel.Missing += prior.Missing
		}
		c.rel[sw] = rel
	}
	delete(c.dedups, sw)
	// Same for the software path: freeze the sub-window's spike count.
	if st, live := c.spikes[sw]; live {
		st.mu.Lock()
		c.spikeDone[sw] = st.count
		st.mu.Unlock()
		delete(c.spikes, sw)
	}
	if !c.hasFin || sw > c.lastFin {
		c.lastFin, c.hasFin = sw, true
	}
	c.mu.Unlock()
	c.obs.OpInsert.Observe(o2sum)
	c.obs.OpMerge.Observe(o3sum)

	wStart, ok := c.cfg.Plan.Ends(sw)
	if !ok {
		c.obs.Finish.Observe(time.Since(finStart))
		c.obs.Ring.Record(obs.StageFinished, sw, len(c.shards), int64(time.Since(finStart)))
		return nil
	}

	// O4: evaluate the query over each shard's slice of the merged
	// column, then fold.
	c.forEachShard(func(_ int, s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		start := time.Now()
		if c.cfg.CaptureValues {
			s.fin.values = make(map[packet.FlowKey]uint64, s.table.rows)
		}
		s.fin.detected = s.table.scan(&c.cfg, s.fin.detected[:0], s.fin.values)
		s.fin.scan = time.Since(start)
	})

	start := time.Now()
	res := WindowResult{Start: wStart, End: sw}
	c.mu.Lock()
	for s := wStart; s <= sw; s++ {
		r := c.rel[s]
		res.MissingAFRs += r.Missing
		res.ShedAFRs += r.Shed
		if r.Shed > 0 && r.Missing > 0 {
			res.Degraded = true
		}
		res.SpikePackets += c.spikeDone[s]
	}
	c.mu.Unlock()
	res.Incomplete = res.MissingAFRs > 0
	detected, total := 0, 0
	for _, s := range c.shards {
		detected += len(s.fin.detected)
		total += len(s.fin.values)
	}
	if detected > 0 {
		res.Detected = make([]packet.FlowKey, 0, detected)
	}
	if c.cfg.CaptureValues {
		res.Values = make(map[packet.FlowKey]uint64, total)
	}
	for _, s := range c.shards {
		res.Detected = append(res.Detected, s.fin.detected...)
		for k, v := range s.fin.values {
			res.Values[k] = v
		}
		s.fin.values = nil
	}
	slices.SortFunc(res.Detected, packetKeyCmp)
	fold := time.Since(start)

	c.mu.Lock()
	o4sum := fold
	for _, s := range c.shards {
		t.Process += s.fin.scan
		o4sum += s.fin.scan
	}
	t.Process += fold
	c.mu.Unlock()
	c.obs.OpProcess.Observe(o4sum)

	// O5: retire sub-windows that no future window needs.
	if retire, ok := c.cfg.Plan.Retire(sw); ok {
		c.forEachShard(func(_ int, s *shard) {
			s.mu.Lock()
			defer s.mu.Unlock()
			start := time.Now()
			s.table.retire(retire)
			for old, recs := range s.pending {
				if old <= retire {
					pool.PutAFRs(recs)
					delete(s.pending, old)
				}
			}
			s.fin.evict = time.Since(start)
		})
		c.mu.Lock()
		var o5sum time.Duration
		for _, s := range c.shards {
			t.Evict += s.fin.evict
			o5sum += s.fin.evict
		}
		c.obs.OpEvict.Observe(o5sum)
		for old := range c.dedups {
			if old <= retire {
				delete(c.dedups, old)
			}
		}
		for old := range c.rel {
			if old <= retire {
				delete(c.rel, old)
			}
		}
		for old := range c.spikes {
			if old <= retire {
				delete(c.spikes, old)
			}
		}
		for old := range c.spikeDone {
			if old <= retire {
				delete(c.spikeDone, old)
			}
		}
		c.mu.Unlock()
	}
	c.obs.Finish.Observe(time.Since(finStart))
	c.obs.Ring.Record(obs.StageFinished, sw, len(c.shards), int64(time.Since(finStart)))
	c.obs.Ring.Record(obs.StageWindowEmitted, sw, -1, int64(wStart))
	c.obs.Windows.Inc()
	if res.Incomplete {
		c.obs.IncompleteWindows.Inc()
	}
	if res.Degraded {
		c.obs.DegradedWindows.Inc()
	}
	return []WindowResult{res}
}

// packetKeyCmp orders flow keys deterministically for stable output:
// by source IP, destination IP, source port, destination port, protocol.
func packetKeyCmp(a, b packet.FlowKey) int {
	if c := cmp.Compare(uint64(a.SrcIP)<<32|uint64(a.DstIP), uint64(b.SrcIP)<<32|uint64(b.DstIP)); c != 0 {
		return c
	}
	return cmp.Compare(
		uint64(a.SrcPort)<<24|uint64(a.DstPort)<<8|uint64(a.Proto),
		uint64(b.SrcPort)<<24|uint64(b.DstPort)<<8|uint64(b.Proto))
}
