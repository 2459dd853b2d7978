// Package controller implements the OmniWindow controller: it collects
// AFRs from switches (bypassing switch OSes), stores them in a key-value
// table, merges per-flow statistics across sub-windows, assembles complete
// windows according to the merge plan, answers telemetry queries over the
// merged table, and evicts retired sub-windows (the O1–O5 operations
// measured in Exp#4).
//
// The key-value table is partitioned into Config.Shards hash-sharded
// slices so the O2 insert, O3 merge, O4 query evaluation and O5 eviction
// of FinishSubWindow run across cores, while ingest (Apply) is safe for
// concurrent callers and fans records out to their owning shard. O2 does
// not wait for the finish: once a shard holds foldChunk unfolded records
// of the sub-window that finishes next, ingest starts a fold that inserts
// them while the rest are still arriving, and the finish folds only the
// tail. Shards=1 degenerates to the fully
// sequential controller, with no fold ahead; results are deterministic and
// identical for every shard count (see DESIGN.md, "Controller concurrency
// model").
package controller

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/pool"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// Config parameterizes a controller instance.
type Config struct {
	// Plan maps sub-windows to complete windows.
	Plan window.Plan
	// Kind is the statistic's merge pattern.
	Kind afr.Kind
	// Threshold is the detection threshold applied to merged values.
	Threshold uint64
	// DistinctCounter optionally overrides how OR-merged distinct
	// summaries are counted (see afr.DistinctCounter). It may be called
	// concurrently from shard workers and must be a pure function.
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
}

// foldChunk is how many unfolded records of the sub-window that finishes
// next a shard holds before ingest starts a fold ahead: enough that one
// goroutine start is spread over thousands of inserts, few enough that a
// flow_churn sub-window (≈ 15 K records a shard at two shards) starts
// several and the finish is left a short tail.
const foldChunk = 2048

// shard owns one partition of the key-value table plus the routed records
// of each open sub-window. mu serializes concurrent ingest appends against
// the readers of the pending records; foldMu, the fold lock, guards the
// table. Two goroutines write the table, each under foldMu: the shard's
// finish worker and its fold ahead, which inserts the sub-window finishing
// next while it is still arriving. No per-row locking is needed. Lock
// order: Controller.finishMu, foldMu, mu.
type shard struct {
	mu      sync.Mutex
	foldMu  sync.Mutex
	table   table
	pending map[uint64]pendingRecs
	// rows is table.rows as of the last finish or restore: the rows the
	// merged columns hold. A fold ahead adds rows only its open column
	// holds, and TableSize does not count them.
	rows int
	// folding: a fold ahead of sub-window ahead has been started and not
	// yet exited (guarded by mu). foldFn starts one; it is built once, in
	// New, so that starting a fold allocates nothing.
	folding bool
	ahead   uint64
	foldFn  func()
	// aheadInsert is the O2 time folds ahead spent since the last finish,
	// which books it (guarded by foldMu).
	aheadInsert time.Duration
	// last is the sub-window this shard's finish last drained (valid when
	// hasLast): a fold ahead of one at or below it is stale (guarded by
	// foldMu).
	last    uint64
	hasLast bool
	// prevCard is the record count the last finished sub-window drained
	// from this shard. A new sub-window's pending slice is pre-sized from
	// it (steady traffic repeats its cardinality), so appends stay within
	// one pool-classed allocation instead of regrowing per batch.
	prevCard int
	// spareSumm is the last finished sub-window's summary storage, emptied
	// and handed to the next new sub-window's pending records: summaries,
	// like records, do not regrow every sub-window.
	spareSumm []packet.Summary
	// fin is this shard's share of the finish in progress: its worker
	// fills it, finishOne folds it once the workers are done (finishMu
	// keeps two finishes apart). ops holds this shard's O2–O5 durations;
	// detected keeps its capacity across windows.
	fin struct {
		ops      OpTimes
		detected []packet.FlowKey
		values   map[packet.FlowKey]uint64
	}
}

// pendingRecs is records and their summaries, parallel to recs or empty
// (packet.Summary): one sub-window's routed-but-unmerged records in a
// shard's pending storage, or one shard's share of an ingest batch. The
// pending records stay whole until the finish; folded is the prefix of
// them a fold ahead has already inserted into the table (O2).
type pendingRecs struct {
	recs   []packet.AFR
	summ   []packet.Summary
	folded int
}

// appendPending appends recs, and their summaries summ (parallel, or
// empty), to sub-window sw's pending records. A new sub-window's record
// slice comes from the pool pre-sized to max(len(recs), prevCard). Caller
// holds s.mu.
func (s *shard) appendPending(sw uint64, recs []packet.AFR, summ []packet.Summary) {
	p, ok := s.pending[sw]
	if !ok {
		p.recs = pool.GetAFRs(max(len(recs), s.prevCard))
		p.summ, s.spareSumm = s.spareSumm, nil
	}
	p.summ = packet.AppendSummaries(p.summ, len(p.recs), summ, len(recs))
	p.recs = append(p.recs, recs...)
	s.pending[sw] = p
}

// OpTimes is the per-sub-window controller time breakdown of Exp#4.
type OpTimes struct {
	// Collect (O1) is the time Apply spent on the sub-window's AFR batches
	// and trigger, on either transport (RDMA batches were once uncharged).
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

// add accumulates o into t.
func (t *OpTimes) add(o OpTimes) {
	t.Collect += o.Collect
	t.Insert += o.Insert
	t.Merge += o.Merge
	t.Process += o.Process
	t.Evict += o.Evict
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
}

// Controller assembles windows from AFR batches. Its state is the fold of
// the records given to Apply, its one input (Receive and IngestAFRs adapt
// packets and bare record slices to it). Ingest is safe for concurrent
// callers; FinishSubWindow serializes against itself but may run
// concurrently with ingest.
type Controller struct {
	cfg    Config
	shards []*shard

	// mu guards the ledger map, times, lastFin and hasFin. Shards and
	// ledger records have their own locks, so concurrent ingest holds this
	// one only to look a record up.
	mu     sync.Mutex
	ledger map[uint64]*subWindow
	times  map[uint64]*OpTimes
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
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		ledger: make(map[uint64]*subWindow),
		times:  make(map[uint64]*OpTimes),
	}
	for i := range c.shards {
		s := &shard{table: newTable(cfg), pending: make(map[uint64]pendingRecs)}
		s.foldFn = s.foldAhead
		c.shards[i] = s
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

// TableSize returns the number of flows in the key-value table as of the
// last finish (or restore): a flow that only the sub-window finishing next
// holds, folded ahead, is not counted until that finish merges it.
func (c *Controller) TableSize() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.rows
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

// ingestScratch is ingestBatch's reusable workspace: the per-record shard
// routing and the per-shard survivor partitions with their summaries.
// Slices keep their capacity across batches; parts are truncated, never
// freed.
type ingestScratch struct {
	sis   []int
	parts []pendingRecs
}

func (c *Controller) getScratch() *ingestScratch {
	c.scratchMu.Lock()
	n := len(c.scratchFree)
	if n == 0 {
		c.scratchMu.Unlock()
		return &ingestScratch{parts: make([]pendingRecs, len(c.shards))}
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

// timesFor returns sub-window sw's OpTimes, creating it on first use.
// Caller holds c.mu.
func (c *Controller) timesFor(sw uint64) *OpTimes {
	t, ok := c.times[sw]
	if !ok {
		t = &OpTimes{}
		c.times[sw] = t
	}
	return t
}

// addCollect charges O1 time to a sub-window (concurrent-safe).
func (c *Controller) addCollect(sw uint64, dt time.Duration) {
	c.mu.Lock()
	c.timesFor(sw).Collect += dt
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

// Apply is the controller's one input, one record of the kinds the
// write-ahead log stores, so a live run and a replay of its log are the
// same Apply calls: an AFR batch (first sent, or retransmitted when
// rec.Retrans) or a trigger, both charged to O1, a shed note (NoteShed)
// or spike copies (IngestSpike). Other types are ignored. Nothing of rec
// is retained. Safe for concurrent callers.
func (c *Controller) Apply(rec *wire.WALRecord) {
	switch rec.Type {
	case wire.WALAFRBatch:
		c.ingestBatch(rec.AFRs, rec.Summaries, rec.Retrans)
	case wire.WALTrigger:
		start := time.Now()
		r, _ := c.open(rec.SubWindow)
		if r == nil {
			c.obs.Duplicates.Inc() // late: the sub-window has finished
			return
		}
		// Announcements are cumulative knowledge: a retransmitted or
		// post-recovery trigger (e.g. a switch re-terminating against an
		// already-drained data structure announces KeyCount 0) must never
		// lower an expectation a replayed trigger already established —
		// that would erase Missing entries for keys the controller knows
		// it has not received. Keep the max; -1 means "not yet announced".
		r.arrived = true
		r.expected = max(r.expected, int(rec.KeyCount))
		r.mu.Unlock()
		c.obs.Ring.Record(obs.StageAnnounced, rec.SubWindow, -1, int64(rec.KeyCount))
		c.addCollect(rec.SubWindow, time.Since(start))
	case wire.WALShed:
		c.NoteShed(rec.SubWindow, int(rec.Count))
	case wire.WALSpike:
		for _, sp := range rec.AFRs {
			c.IngestSpike(sp)
		}
	}
}

// Receive applies the record a switch-to-controller packet carries: an
// AFR batch (OWAFR, OWRetransmit) or a trigger; other flags are ignored.
// The deployment never calls it. It stays for callers that hold packets
// — examples/udpcollector, the benchmark's ladder and this package's
// tests — and leaves with the packet's AFR payload (ROADMAP item 2(c)).
func (c *Controller) Receive(p *packet.Packet) {
	rec := wire.WALRecord{SubWindow: p.OW.SubWindow, AFRs: p.OW.AFRs, Summaries: p.OW.Summaries}
	switch p.OW.Flag {
	case packet.OWAFR, packet.OWRetransmit:
		rec.Type, rec.Retrans = wire.WALAFRBatch, p.OW.Flag == packet.OWRetransmit
	case packet.OWTrigger:
		rec.Type, rec.KeyCount = wire.WALTrigger, p.OW.KeyCount
	default:
		return
	}
	c.Apply(&rec)
}

// IngestAFRs applies recs, which it does not retain, as one batch.
func (c *Controller) IngestAFRs(recs []packet.AFR) {
	c.Apply(&wire.WALRecord{Type: wire.WALAFRBatch, AFRs: recs})
}

// ingestBatch is Apply's batched ingest, summ being recs' summaries
// (parallel, or empty): route lock-free, dedup with one hold of the
// ledger record per run of equal sub-windows, then append each shard's
// survivors under one shard lock acquisition per (shard, batch). retrans
// marks records arriving via the NACK/retransmit path: recovery
// accounting counts only sequences whose FIRST arrival was a
// retransmission (a retransmit of a record that also arrived normally is
// a plain duplicate). Each run's time is charged to its sub-window's O1
// Collect. recs and summ are not retained: survivors are copied into the
// shard's pending storage. The one sub-window the next finish takes,
// when the plan covers it, is folded ahead (shard.appendPart).
func (c *Controller) ingestBatch(recs []packet.AFR, summ []packet.Summary, retrans bool) {
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
	admitted := 0
	var ahead uint64
	aheadOK := false
	for i, j := 0, 0; i < len(recs); i = j {
		sw := recs[i].SubWindow
		for j = i + 1; j < len(recs) && recs[j].SubWindow == sw; j++ {
		}
		r, next := c.open(sw)
		if r == nil {
			continue // late: the whole run is duplicate delivery
		}
		if next && len(c.shards) > 1 && c.cfg.Plan.Covers(sw) {
			ahead, aheadOK = sw, true
		}
		r.arrived = true
		n := 0
		for k := i; k < j; k++ {
			if r.seen.add(recs[k].Seq) {
				n++
				p := &parts[sis[k]]
				if len(summ) > 0 {
					p.summ = packet.AppendSummary(p.summ, len(p.recs), summ[k])
				}
				p.recs = append(p.recs, recs[k])
			}
		}
		if retrans {
			r.recovered += n
		}
		r.mu.Unlock()
		admitted += n
		c.addCollect(sw, time.Since(start))
		start = time.Now()
	}
	c.obs.Ingested.Add(int64(admitted))
	c.obs.Duplicates.Add(int64(len(recs) - admitted))
	if retrans && admitted > 0 {
		c.obs.Recovered.Add(int64(admitted))
	}
	for si := range parts {
		if part := &parts[si]; len(part.recs) > 0 {
			c.shards[si].appendPart(part, ahead, aheadOK)
			part.recs, part.summ = part.recs[:0], part.summ[:0]
		}
	}
	c.putScratch(sc)
}

// appendPart appends one shard's share of a batch (ingest's, or a restored
// cut's) to its pending records under one hold of s.mu, a run of equal
// sub-windows at a time so each costs one map lookup (appendPending
// pre-sizes a new sub-window's slice from the previous one's cardinality).
// When aheadOK, sub-window ahead is the one the next finish takes, and a
// fold of it starts once foldChunk of its records wait unfolded.
func (s *shard) appendPart(part *pendingRecs, ahead uint64, aheadOK bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, k := 0, 0; j < len(part.recs); j = k {
		sw := part.recs[j].SubWindow
		for k = j + 1; k < len(part.recs) && part.recs[k].SubWindow == sw; k++ {
		}
		s.appendPending(sw, part.recs[j:k], packet.SummarySlice(part.summ, j, k))
	}
	if aheadOK && !s.folding {
		if p := s.pending[ahead]; len(p.recs)-p.folded >= foldChunk {
			s.folding, s.ahead = true, ahead
			go s.foldFn()
		}
	}
}

// foldAhead is O2 on arrival: it inserts sub-window s.ahead's unfolded
// pending records into its column in arrival order, the whole unfolded
// tail at a time, until it has caught up, and then exits. It holds the
// fold lock throughout, so a finish, export or restore that takes the lock
// joins it. It folds nothing when the shard has already finished the
// sub-window (an ingest that read LastFinished before that finish
// settled), or when the sub-window's ring slot holds another one (only a
// RestoreState under another Plan leaves one there; the finish's insert
// retires it).
func (s *shard) foldAhead() {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	sw := s.ahead
	skip := s.hasLast && sw <= s.last || s.table.slotTaken(sw)
	for !skip {
		p := s.pending[sw]
		if p.folded == len(p.recs) {
			break
		}
		recs, summ := p.recs[p.folded:], packet.SummarySlice(p.summ, p.folded, len(p.recs))
		p.folded = len(p.recs)
		s.pending[sw] = p
		s.mu.Unlock()
		start := time.Now()
		s.table.insert(sw, recs, summ)
		s.aheadInsert += time.Since(start)
		s.mu.Lock()
	}
	s.folding = false
	s.mu.Unlock()
}

// IngestSpike merges one latency-spike packet through the software path
// (§5), handed over as a record: the flow key, the stamped sub-window —
// no longer preserved in any data-plane region — the packet's sequence
// number and its contribution Attr, computed by the caller from the
// application's merge pattern. Attr is added to the key-value table
// directly, attributed to the stamped sub-window. Copies are deduplicated
// by (flow key, packet sequence) per sub-window, so duplicated or
// multiply-cloned spikes merge exactly once. It returns false without
// merging when a copy of it was already merged, or when the stamped
// sub-window has already been finished (its window is emitted; merging
// now would silently corrupt later windows sharing the table). Safe for
// concurrent callers.
func (c *Controller) IngestSpike(rec packet.AFR) bool {
	sw := rec.SubWindow
	r, _ := c.open(sw)
	if r == nil {
		return false
	}
	id := spikeID{key: rec.Key, seq: rec.Seq}
	if r.spikeSeen[id] {
		r.mu.Unlock()
		return false
	}
	if r.spikeSeen == nil {
		r.spikeSeen = make(map[spikeID]bool)
	}
	r.spikeSeen[id] = true
	r.spikes++
	r.mu.Unlock()

	// The contribution enters the owning shard's pending list like an AFR
	// and is folded by the next FinishSubWindow. It deliberately bypasses
	// the AFR sequence dedup: spike packets are not part of the switch's
	// announced per-sub-window sequence space, so they must not consume
	// (or collide with) AFR sequence numbers in loss accounting.
	s := c.shards[c.shardIndex(rec.Key)]
	spike := [1]packet.AFR{{Key: rec.Key, Attr: rec.Attr, SubWindow: sw}}
	s.mu.Lock()
	s.appendPending(sw, spike[:], nil)
	s.mu.Unlock()
	c.obs.Spikes.Inc()
	return true
}

// forEachShard runs f once per shard — inline when there is a single
// shard, on a worker goroutine per shard otherwise.
func (c *Controller) forEachShard(f func(s *shard)) {
	if len(c.shards) == 1 {
		f(c.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(c.shards))
	for _, s := range c.shards {
		go func(s *shard) {
			defer wg.Done()
			f(s)
		}(s)
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
// finished is a no-op, and finishing one beyond LastFinished+1 panics —
// the caller skipped a sub-window it never finished, a bug in the caller.
// A controller's first finish may be any sub-window.
func (c *Controller) FinishSubWindow(sw uint64) []WindowResult {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	last, done := c.LastFinished()
	if done && sw <= last {
		return nil
	}
	if done && sw > last+1 {
		panic(fmt.Sprintf("controller: FinishSubWindow(%d) skips sub-window %d: sub-windows finish in order", sw, last+1))
	}
	return c.finishOne(sw)
}

// step is what the plan says finishing one sub-window involves, read once.
type step struct {
	sw uint64
	// covered: some window reads sw. One that no window covers
	// (subsampling plans) is accounted like any other but never reaches
	// the table: the retire that should have covered it has already run.
	covered bool
	ends    bool // the window [start, sw] completes here: O4 runs
	start   uint64
	retires bool // and sub-windows <= retire leave the table: O5 runs
	retire  uint64
}

// finish is one shard's whole share of a finish, under a single hold of
// its fold lock and its lock: join the fold ahead, drain the routed
// records, fold the ones it left into the sub-window's column (O2), merge
// it (O3) and — when a window ends — evaluate the query over this shard's
// slice (O4) and retire what no future window needs (O5). Each step reads
// only what the one before wrote in this shard, so none needs a barrier;
// the results wait in s.fin for the fold. O2's time includes what the
// folds ahead spent.
func (s *shard) finish(cfg *Config, st step) {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending[st.sw]
	delete(s.pending, st.sw)
	s.last, s.hasLast = st.sw, true

	start := time.Now()
	if st.covered {
		s.table.insert(st.sw, p.recs[p.folded:], packet.SummarySlice(p.summ, p.folded, len(p.recs)))
	}
	s.fin.ops = OpTimes{Insert: time.Since(start) + s.aheadInsert}
	s.aheadInsert = 0

	start = time.Now()
	if st.covered {
		s.table.merge(st.sw)
	}
	s.fin.ops.Merge = time.Since(start)
	s.rows = s.table.rows

	// The drained slice's job is done (the records were folded into the
	// column): remember its cardinality to pre-size the next sub-window,
	// then recycle it.
	s.prevCard = len(p.recs)
	pool.PutAFRs(p.recs)
	if cap(p.summ) > cap(s.spareSumm) {
		s.spareSumm = p.summ[:0]
	}
	if !st.ends {
		return
	}

	start = time.Now()
	if cfg.CaptureValues {
		s.fin.values = make(map[packet.FlowKey]uint64, s.table.rows)
	}
	s.fin.detected = s.table.scan(cfg, s.fin.detected[:0], s.fin.values)
	s.fin.ops.Process = time.Since(start)
	if !st.retires {
		return
	}

	start = time.Now()
	s.table.retire(st.retire)
	s.rows = s.table.rows
	for old, p := range s.pending {
		if old <= st.retire {
			pool.PutAFRs(p.recs)
			delete(s.pending, old)
		}
	}
	s.fin.ops.Evict = time.Since(start)
}

// finishOne finishes one sub-window: a parallel pass over the shards, a
// fold, a locked settle. Caller holds finishMu and has established that sw
// is next in finish order. Per-shard durations are summed, so Exp#4's
// breakdown reports CPU work, not wall-clock; the fold is deterministic
// (one packetKeyCmp sort) and feeds nothing back, so the output is
// byte-for-byte identical for every shard count.
func (c *Controller) finishOne(sw uint64) []WindowResult {
	finStart := time.Now()
	st := step{sw: sw, covered: c.cfg.Plan.Covers(sw)}
	if st.start, st.ends = c.cfg.Plan.Ends(sw); st.ends {
		st.retire, st.retires = c.cfg.Plan.Retire(sw)
	}
	c.forEachShard(func(s *shard) { s.finish(&c.cfg, st) })

	var ops OpTimes
	for _, s := range c.shards {
		ops.add(s.fin.ops)
	}
	var out []WindowResult
	if st.ends {
		start := time.Now()
		out = []WindowResult{c.fold(st)}
		ops.Process += time.Since(start)
	}
	c.settle(st, ops, out)

	c.obs.OpInsert.Observe(ops.Insert)
	c.obs.OpMerge.Observe(ops.Merge)
	if st.ends {
		c.obs.OpProcess.Observe(ops.Process)
	}
	if st.retires {
		c.obs.OpEvict.Observe(ops.Evict)
	}
	c.obs.Finish.Observe(time.Since(finStart))
	c.obs.Ring.Record(obs.StageFinished, sw, len(c.shards), int64(time.Since(finStart)))
	if out == nil {
		return nil
	}
	c.obs.Ring.Record(obs.StageWindowEmitted, sw, -1, int64(st.start))
	c.obs.Windows.Inc()
	if out[0].Incomplete {
		c.obs.IncompleteWindows.Inc()
	}
	if out[0].Degraded {
		c.obs.DegradedWindows.Inc()
	}
	return out
}

// fold gathers the shards' O4 results into the window that ends at st.sw.
func (c *Controller) fold(st step) WindowResult {
	res := WindowResult{Start: st.start, End: st.sw}
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
	return res
}

// settle is the finish's one section under c.mu: book the O2–O5 times,
// move the ledger record from open to finished, advance lastFin, fill the
// ending window's (if any) delivery accounting from the records it spans
// and, with O5, prune every record at or below the retired sub-window.
func (c *Controller) settle(st step, ops OpTimes, window []WindowResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timesFor(st.sw).add(ops)
	if r := c.ledger[st.sw]; r != nil {
		r.finish()
	}
	c.lastFin, c.hasFin = st.sw, true
	if window == nil {
		return
	}
	res := &window[0]
	for s := st.start; s <= st.sw; s++ {
		if r := c.ledger[s]; r != nil {
			r.addTo(res)
		}
	}
	res.Incomplete = res.MissingAFRs > 0
	if st.retires {
		for old := range c.ledger {
			if old <= st.retire {
				delete(c.ledger, old)
			}
		}
	}
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
