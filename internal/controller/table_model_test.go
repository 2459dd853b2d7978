package controller

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// This file holds the naive reference the columnar table is tested
// against: the key-value table the controller used before it — a map of
// flow key to *entry, each entry a slice of per-sub-window contributions
// plus an afr.Merged rebuilt from the survivors on every eviction — moved
// here verbatim (contrib, entry, the O2 insert loop, evictShard), wrapped
// in a single-shard, lock-free restatement of the controller's dedup,
// reliability and spike accounting so it can answer every question the
// real controller answers. A seeded differential test and
// FuzzTableDifferential drive a real Controller and the model through one
// op stream and require identical WindowResults, table sizes and snapshot
// bytes after every finish, across a mid-stream restore into a different
// shard count.

// contrib is one sub-window's contribution to a flow.
type contrib struct {
	sw       uint64
	attr     uint64
	distinct packet.Summary
}

// entry is one flow's row in the key-value table.
type entry struct {
	contribs []contrib
	merged   afr.Merged
}

type modelDedup struct {
	seen                      map[uint32]bool
	expected, recovered, shed int
}

type modelSpikeID struct {
	key packet.FlowKey
	seq uint32
}

type modelSpikes struct {
	seen  map[modelSpikeID]bool
	count int
}

type modelController struct {
	cfg       Config
	table     map[packet.FlowKey]*entry
	pending   map[uint64][]summarized
	dedups    map[uint64]*modelDedup
	spikes    map[uint64]*modelSpikes
	spikeDone map[uint64]int
	rel       map[uint64]metrics.Reliability
	lastFin   uint64
	hasFin    bool
}

func newModelController(cfg Config) *modelController {
	return &modelController{
		cfg:       cfg,
		table:     make(map[packet.FlowKey]*entry),
		pending:   make(map[uint64][]summarized),
		dedups:    make(map[uint64]*modelDedup),
		spikes:    make(map[uint64]*modelSpikes),
		spikeDone: make(map[uint64]int),
		rel:       make(map[uint64]metrics.Reliability),
	}
}

func (m *modelController) dedupFor(sw uint64) *modelDedup {
	d, ok := m.dedups[sw]
	if !ok {
		d = &modelDedup{seen: make(map[uint32]bool), expected: -1}
		m.dedups[sw] = d
	}
	return d
}

func (m *modelController) trigger(sw uint64, keyCount int) {
	if m.hasFin && sw <= m.lastFin {
		return // late: a finished sub-window is never reopened
	}
	if d := m.dedupFor(sw); keyCount > d.expected {
		d.expected = keyCount
	}
}

func (m *modelController) ingest(recs []packet.AFR, summ []packet.Summary, retrans bool) {
	for i, r := range recs {
		if m.hasFin && r.SubWindow <= m.lastFin {
			continue // late: a finished sub-window is never reopened
		}
		d := m.dedupFor(r.SubWindow)
		if d.seen[r.Seq] {
			continue
		}
		d.seen[r.Seq] = true
		if retrans {
			d.recovered++
		}
		m.pending[r.SubWindow] = append(m.pending[r.SubWindow], summarized{r, packet.SummaryAt(summ, i)})
	}
}

func (m *modelController) spike(rec packet.AFR) bool {
	sw := rec.SubWindow
	if m.hasFin && sw <= m.lastFin {
		return false
	}
	st, ok := m.spikes[sw]
	if !ok {
		st = &modelSpikes{seen: make(map[modelSpikeID]bool)}
		m.spikes[sw] = st
	}
	id := modelSpikeID{rec.Key, rec.Seq}
	if st.seen[id] {
		return false
	}
	st.seen[id] = true
	st.count++
	m.pending[sw] = append(m.pending[sw], summarized{rec: packet.AFR{Key: rec.Key, Attr: rec.Attr, SubWindow: sw}})
	return true
}

func (m *modelController) noteShed(sw uint64, n int) {
	if d, live := m.dedups[sw]; live {
		d.shed += n
	} else if rel, done := m.rel[sw]; done {
		rel.Shed += n
		m.rel[sw] = rel
	}
}

func (m *modelController) noteLost(sw uint64, n int) {
	rel := m.rel[sw]
	rel.Missing += n
	m.rel[sw] = rel
}

func (m *modelController) tableSize() int { return len(m.table) }

func (m *modelController) finish(sw uint64) []WindowResult {
	if m.hasFin && sw <= m.lastFin {
		return nil
	}
	return m.finishOne(sw)
}

func (m *modelController) finishOne(sw uint64) []WindowResult {
	recs := m.pending[sw]
	delete(m.pending, sw)
	if m.cfg.Plan.Covers(sw) {
		// The old O2 insert and O3 merge, verbatim.
		touched := make([]*entry, 0, len(recs))
		for _, r := range recs {
			e, ok := m.table[r.rec.Key]
			if !ok {
				e = &entry{merged: afr.NewMergedWithCounter(m.cfg.Kind, m.cfg.DistinctCounter)}
				m.table[r.rec.Key] = e
			}
			e.contribs = append(e.contribs, contrib{sw: r.rec.SubWindow, attr: r.rec.Attr, distinct: r.summ})
			touched = append(touched, e)
		}
		for j, e := range touched {
			r := recs[j]
			e.merged.Absorb(r.rec.Attr, r.summ)
		}
	}

	if d, live := m.dedups[sw]; live {
		rel := metrics.Reliability{Expected: d.expected, Received: len(d.seen), Recovered: d.recovered, Shed: d.shed}
		for s := 0; s < d.expected; s++ {
			if !d.seen[uint32(s)] {
				rel.Missing++
			}
		}
		if prior, ok := m.rel[sw]; ok {
			rel.Missing += prior.Missing
		}
		m.rel[sw] = rel
	}
	delete(m.dedups, sw)
	if st, live := m.spikes[sw]; live {
		m.spikeDone[sw] = st.count
		delete(m.spikes, sw)
	}
	if !m.hasFin || sw > m.lastFin {
		m.lastFin, m.hasFin = sw, true
	}

	wStart, ok := m.cfg.Plan.Ends(sw)
	if !ok {
		return nil
	}
	res := WindowResult{Start: wStart, End: sw}
	if m.cfg.CaptureValues {
		res.Values = make(map[packet.FlowKey]uint64, len(m.table))
	}
	for k, e := range m.table {
		v := e.merged.Value()
		if v >= m.cfg.Threshold {
			res.Detected = append(res.Detected, k)
		}
		if res.Values != nil {
			res.Values[k] = v
		}
	}
	slices.SortFunc(res.Detected, packetKeyCmp)
	for s := wStart; s <= sw; s++ {
		r := m.rel[s]
		res.MissingAFRs += r.Missing
		res.ShedAFRs += r.Shed
		if r.Shed > 0 && r.Missing > 0 {
			res.Degraded = true
		}
		res.SpikePackets += m.spikeDone[s]
	}
	res.Incomplete = res.MissingAFRs > 0

	if retire, ok := m.cfg.Plan.Retire(sw); ok {
		m.evictShard(retire)
		for old := range m.dedups {
			if old <= retire {
				delete(m.dedups, old)
			}
		}
		for old := range m.rel {
			if old <= retire {
				delete(m.rel, old)
			}
		}
		for old := range m.spikes {
			if old <= retire {
				delete(m.spikes, old)
			}
		}
		for old := range m.spikeDone {
			if old <= retire {
				delete(m.spikeDone, old)
			}
		}
	}
	return []WindowResult{res}
}

// evictShard is the old O5, verbatim: drop contributions of sub-windows
// <= retire, rebuild merged values from the survivors, delete flows with
// none left.
func (m *modelController) evictShard(retire uint64) {
	for k, e := range m.table {
		kept := e.contribs[:0]
		for _, cb := range e.contribs {
			if cb.sw > retire {
				kept = append(kept, cb)
			}
		}
		if len(kept) == 0 {
			delete(m.table, k)
			continue
		}
		if len(kept) != len(e.contribs) {
			e.contribs = kept
			e.merged = afr.NewMergedWithCounter(m.cfg.Kind, m.cfg.DistinctCounter)
			for _, cb := range kept {
				e.merged.Absorb(cb.attr, cb.distinct)
			}
		} else {
			e.contribs = kept
		}
	}
	for sw := range m.pending {
		if sw <= retire {
			delete(m.pending, sw)
		}
	}
}

// coalesce folds flow k's contributions of one sub-window into one cell
// and its summary, the way a column holds them. Contributions arrive in
// sub-window order.
func (m *modelController) coalesce(k packet.FlowKey, cbs []contrib) []summarized {
	var out []summarized
	for _, cb := range cbs {
		if n := len(out); n > 0 && out[n-1].rec.SubWindow == cb.sw {
			o := &out[n-1]
			switch m.cfg.Kind {
			case afr.Frequency, afr.Distinction:
				o.rec.Attr += cb.attr
			case afr.Existence:
				o.rec.Attr |= cb.attr
			case afr.Max:
				o.rec.Attr = max(o.rec.Attr, cb.attr)
			case afr.Min:
				o.rec.Attr = min(o.rec.Attr, cb.attr)
			}
			if m.cfg.Kind == afr.Distinction {
				for i := range o.summ {
					o.summ[i] |= cb.distinct[i]
				}
			}
			continue
		}
		c := summarized{rec: packet.AFR{Key: k, Attr: cb.attr, SubWindow: cb.sw}}
		if m.cfg.Kind == afr.Distinction {
			c.summ = cb.distinct
		}
		out = append(out, c)
	}
	return out
}

// export cuts the whole model: one column per sub-window some flow has a
// contribution of, its cells in key order.
func (m *modelController) export() *wire.Snapshot {
	s := &wire.Snapshot{LastFinished: m.lastFin, HasFinished: m.hasFin}
	cols := map[uint64][]summarized{}
	for k, e := range m.table {
		for _, c := range m.coalesce(k, e.contribs) {
			cols[c.rec.SubWindow] = append(cols[c.rec.SubWindow], c)
		}
	}
	for sw, cells := range cols {
		slices.SortFunc(cells, func(a, b summarized) int { return packetKeyCmp(a.rec.Key, b.rec.Key) })
		s.Live = append(s.Live, sw)
		col := wire.SnapColumn{SW: sw}
		for _, c := range cells {
			col.Summaries = packet.AppendSummary(col.Summaries, len(col.Cells), c.summ)
			col.Cells = append(col.Cells, c.rec)
		}
		s.Columns = append(s.Columns, col)
	}
	slices.Sort(s.Live)
	slices.SortFunc(s.Columns, func(a, b wire.SnapColumn) int { return cmp.Compare(a.SW, b.SW) })
	var pend []summarized
	for _, recs := range m.pending {
		pend = append(pend, recs...)
	}
	slices.SortFunc(pend, comparePending)
	for _, p := range pend {
		s.PendingSummaries = packet.AppendSummary(s.PendingSummaries, len(s.Pending), p.summ)
		s.Pending = append(s.Pending, p.rec)
	}
	for sw, d := range m.dedups {
		sd := wire.SnapDedup{SW: sw, Expected: int32(d.expected), Recovered: uint32(d.recovered), Shed: uint32(d.shed)}
		sd.Spikes = uint32(m.spikeCount(sw))
		for seq := range d.seen {
			sd.Seen = append(sd.Seen, seq)
		}
		slices.Sort(sd.Seen)
		s.Dedups = append(s.Dedups, sd)
	}
	slices.SortFunc(s.Dedups, func(a, b wire.SnapDedup) int { return cmp.Compare(a.SW, b.SW) })
	for sw, r := range m.rel {
		s.Rels = append(s.Rels, wire.SnapRel{
			SW: sw, Expected: int32(r.Expected), Received: uint32(r.Received),
			Recovered: uint32(r.Recovered), Missing: uint32(r.Missing), Shed: uint32(r.Shed),
			Spikes: uint32(m.spikeCount(sw)),
		})
	}
	slices.SortFunc(s.Rels, func(a, b wire.SnapRel) int { return cmp.Compare(a.SW, b.SW) })
	return s
}

// spikeCount is sub-window sw's spike copies merged so far: counted while
// it is open, final once it finished.
func (m *modelController) spikeCount(sw uint64) int {
	if st := m.spikes[sw]; st != nil {
		return st.count
	}
	return m.spikeDone[sw]
}

// restore is the old RestoreState over a whole cut, each cell one
// contribution of its flow (columns arrive in sub-window order). Like the
// real one it restores spike counts, which the ledger entries carry, and
// starts the spike dedup sets empty, which they do not.
func (m *modelController) restore(s *wire.Snapshot) {
	m.table = make(map[packet.FlowKey]*entry)
	m.pending = make(map[uint64][]summarized)
	for _, col := range s.Columns {
		for i, c := range col.Cells {
			e, ok := m.table[c.Key]
			if !ok {
				e = &entry{merged: afr.NewMergedWithCounter(m.cfg.Kind, m.cfg.DistinctCounter)}
				m.table[c.Key] = e
			}
			summ := packet.SummaryAt(col.Summaries, i)
			e.contribs = append(e.contribs, contrib{sw: col.SW, attr: c.Attr, distinct: summ})
			e.merged.Absorb(c.Attr, summ)
		}
	}
	for i, r := range s.Pending {
		m.pending[r.SubWindow] = append(m.pending[r.SubWindow], summarized{r, packet.SummaryAt(s.PendingSummaries, i)})
	}
	m.dedups = make(map[uint64]*modelDedup)
	m.rel = make(map[uint64]metrics.Reliability)
	m.spikes, m.spikeDone = make(map[uint64]*modelSpikes), make(map[uint64]int)
	m.lastFin, m.hasFin = s.LastFinished, s.HasFinished
	// A sub-window with arrival state is open; one with accounting alone
	// is open only past the last finish (restore's recordFor).
	setSpikes := func(sw uint64, n uint32) {
		if _, open := m.dedups[sw]; !open && m.hasFin && sw <= m.lastFin {
			m.spikeDone[sw] = int(n)
		} else {
			m.spikes[sw] = &modelSpikes{seen: make(map[modelSpikeID]bool), count: int(n)}
		}
	}
	for _, sd := range s.Dedups {
		d := &modelDedup{seen: make(map[uint32]bool), expected: int(sd.Expected), recovered: int(sd.Recovered), shed: int(sd.Shed)}
		for _, seq := range sd.Seen {
			d.seen[seq] = true
		}
		m.dedups[sd.SW] = d
		setSpikes(sd.SW, sd.Spikes)
	}
	for _, sr := range s.Rels {
		setSpikes(sr.SW, sr.Spikes)
		m.rel[sr.SW] = metrics.Reliability{
			Expected: int(sr.Expected), Received: int(sr.Received),
			Recovered: int(sr.Recovered), Missing: int(sr.Missing), Shed: int(sr.Shed),
		}
	}
}

// diffKinds are the merge kinds the differential runs: the five patterns
// plus Distinction under a custom summary counter.
var diffKinds = []struct {
	name    string
	kind    afr.Kind
	counter afr.DistinctCounter
}{
	{"frequency", afr.Frequency, nil},
	{"existence", afr.Existence, nil},
	{"max", afr.Max, nil},
	{"min", afr.Min, nil},
	{"distinction", afr.Distinction, nil},
	{"distinction-popcount", afr.Distinction, func(s [4]uint64) uint64 {
		return uint64(bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3]))
	}},
}

var diffPlans = []window.Plan{
	window.Tumbling(1), window.Tumbling(5),
	window.SlidingPlan(3, 1), window.SlidingPlan(5, 1), window.SlidingPlan(4, 2), window.SlidingPlan(5, 2),
	{Size: 2, Slide: 4},
}

// diffAttrs are the attribute values the stream draws from: zero, small
// counts, both ends of the range (Min/Max identities, Frequency
// wrap-around when two large values meet) and a mid-range value.
var diffAttrs = []uint64{0, 0, 1, 1, 2, 3, 7, 40, 1 << 33, math.MaxUint64, math.MaxUint64 - 3, math.MaxUint64 / 2}

// diffKeys is the differential's key universe: 24 keys, so a key
// routinely has several records in one sub-window under different sequence
// numbers, leaves the table when its last sub-window retires and comes
// back to a recycled row later.
var diffKeys = func() []packet.FlowKey {
	keys := make([]packet.FlowKey, 24)
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i) * 2654435761, DstIP: uint32(i % 3), SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP}
	}
	return keys
}()

// runTableOps drives a real controller and the model through the op
// stream in data, comparing them after every finish and restore. The
// stream draws its keys from keys. When bulks, its bulk op ingests enough
// records of the sub-window that finishes next for folds ahead to run at
// any shard count, and compares between batches, while the folds run.
func runTableOps(t *testing.T, cfg Config, keys []packet.FlowKey, data []byte, bulks bool) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	shardCounts := []int{cfg.Shards, 3, 8, 1}
	real, model := New(cfg), newModelController(cfg)
	key := func(i int) packet.FlowKey { return keys[i%len(keys)] }
	cur := uint64(0) // the next sub-window to finish
	seqs := map[uint64]uint32{}
	pickSW := func() uint64 {
		switch v := next() % 16; {
		case v < 10:
			return cur
		case v < 13:
			return cur + 1
		case v < 14:
			return cur + 4
		default: // a finished (possibly retired) sub-window
			return cur - min(cur, uint64(1+v%3))
		}
	}
	check := func(what string, got, want []WindowResult) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (next sub-window %d): windows differ\n real  %+v\n model %+v", what, cur, got, want)
		}
		if g, w := real.TableSize(), model.tableSize(); g != w {
			t.Fatalf("%s (next sub-window %d): TableSize %d, model %d", what, cur, g, w)
		}
		g, w := snapBytes(real.ExportState()), snapBytes(model.export())
		if !bytes.Equal(g, w) {
			gs, _ := wire.DecodeSnapshot(g)
			ws, _ := wire.DecodeSnapshot(w)
			t.Fatalf("%s (next sub-window %d): snapshot bytes differ\n real  %+v\n model %+v", what, cur, gs, ws)
		}
	}
	// bulk: at least 2×foldChunk records of cur in 128-record batches,
	// through one or two keys, so that a key's shard holds foldChunk of
	// them whatever the shard count. TableSize is compared after every
	// batch; a whole check exports thousands of pending records, so it
	// runs every sixteenth batch and after the last, and a run that bulks
	// and starts at more than one shard does it once, while the real
	// controller has shards to fold ahead in.
	bulkLeft := bulks && cfg.Shards > 1
	bulk := func() {
		bulkLeft = false
		sw, base, spread := cur, next(), 1+next()%2
		n := 2*foldChunk + next()
		for b, off := 0, 0; off < n; b, off = b+1, off+128 {
			recs := make([]packet.AFR, min(128, n-off))
			var summ []packet.Summary
			for i := range recs {
				j := off + i
				recs[i] = packet.AFR{Key: key(base + j%spread), SubWindow: sw, Attr: diffAttrs[j%len(diffAttrs)], Seq: seqs[sw]}
				seqs[sw]++
				if cfg.Kind == afr.Distinction && j%3 != 0 {
					summ = packet.AppendSummary(summ, i, packet.Summary{1 << (j % 64), uint64(j)})
				} else if len(summ) > 0 {
					summ = append(summ, packet.Summary{})
				}
			}
			real.Apply(&wire.WALRecord{Type: wire.WALAFRBatch, AFRs: recs, Summaries: summ})
			model.ingest(recs, summ, false)
			if b%16 != 15 && off+len(recs) < n {
				if g, w := real.TableSize(), model.tableSize(); g != w {
					t.Fatalf("bulk ingest of sub-window %d through %d: TableSize %d, model %d", sw, off+len(recs), g, w)
				}
				continue
			}
			check(fmt.Sprintf("bulk ingest of sub-window %d through %d", sw, off+len(recs)), nil, nil)
		}
	}
	restores := 0
	for len(data) > 0 {
		switch op := next() % 16; {
		case op < 8: // a batch of AFRs
			sw := pickSW()
			recs := make([]packet.AFR, 1+next()%12)
			var summ []packet.Summary
			for i := range recs {
				r := packet.AFR{Key: key(next()), SubWindow: sw, Attr: diffAttrs[next()%len(diffAttrs)], Seq: seqs[sw]}
				if v := next(); v%8 == 0 && seqs[sw] > 0 {
					r.Seq = uint32(v) % seqs[sw] // a duplicate delivery
				} else {
					seqs[sw]++
				}
				if cfg.Kind == afr.Distinction && next()%4 != 0 {
					var s packet.Summary
					for w := range s {
						s[w] = 1<<(next()%64) | 1<<(next()%64)
					}
					summ = packet.AppendSummary(summ, i, s)
				} else if len(summ) > 0 {
					summ = append(summ, packet.Summary{})
				}
				recs[i] = r
			}
			switch next() % 3 {
			case 0:
				real.Apply(&wire.WALRecord{Type: wire.WALAFRBatch, AFRs: recs, Summaries: summ})
				model.ingest(recs, summ, false)
			case 1:
				p := afrPkt(recs...)
				p.OW.Summaries = summ
				real.Receive(p)
				model.ingest(recs, summ, false)
			default:
				real.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWRetransmit, AFRs: recs, Summaries: summ}})
				model.ingest(recs, summ, true)
			}
		case op < 9: // trigger announcement
			sw, n := pickSW(), next()%20
			real.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: sw, KeyCount: uint32(n)}})
			model.trigger(sw, n)
		case op < 11: // latency-spike copy through the software path
			rec := packet.AFR{Key: key(next()), Seq: uint32(next() % 4), SubWindow: pickSW()}
			rec.Attr = diffAttrs[next()%len(diffAttrs)]
			if g, w := real.IngestSpike(rec), model.spike(rec); g != w {
				t.Fatalf("IngestSpike(sw %d) = %v, model %v", rec.SubWindow, g, w)
			}
		case op < 12:
			sw, n := pickSW(), 1+next()%3
			if next()%2 == 0 {
				real.NoteLost(sw, n)
				model.noteLost(sw, n)
			} else {
				real.NoteShed(sw, n)
				model.noteShed(sw, n)
			}
		case op < 15: // finish: in order, or re-finish
			sw := cur
			if next()%16 == 0 && cur > 0 {
				sw = cur - 1
			}
			check(fmt.Sprintf("FinishSubWindow(%d)", sw), real.FinishSubWindow(sw), model.finish(sw))
			if sw >= cur {
				cur = sw + 1
			}
		default: // bulk, or export, encode, restore into another shard count, go on
			if next()%4 == 0 && bulkLeft && real.Shards() > 1 {
				bulk()
				continue
			}
			snap := roundTrip(t, real.ExportState())
			cfg.Shards = shardCounts[restores%len(shardCounts)]
			restores++
			real = New(cfg)
			real.RestoreState(snap)
			model.restore(roundTrip(t, model.export()))
			check(fmt.Sprintf("restore at %d shards", cfg.Shards), nil, nil)
		}
	}
	// Drain: finish enough sub-windows to emit and retire everything.
	for end := cur + uint64(cfg.Plan.Size+cfg.Plan.Slide); cur < end; cur++ {
		check(fmt.Sprintf("final FinishSubWindow(%d)", cur), real.FinishSubWindow(cur), model.finish(cur))
	}
}

func diffConfig(kind, plan, shards int) Config {
	k := diffKinds[kind%len(diffKinds)]
	cfg := Config{
		Plan: diffPlans[plan%len(diffPlans)], Kind: k.kind, DistinctCounter: k.counter,
		Threshold: 3, CaptureValues: true, Shards: shards,
	}
	if k.kind == afr.Existence {
		cfg.Threshold = 1
	}
	return cfg
}

// TestTableDifferential: every kind x plan x shard count over seeded op
// streams.
func TestTableDifferential(t *testing.T) {
	for ki, k := range diffKinds {
		for pi, p := range diffPlans {
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/size%d-slide%d/shards%d", k.name, p.Size, p.Slide, shards), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						rng := rand.New(rand.NewSource(seed*1000 + int64(ki*100+pi*10+shards)))
						data := make([]byte, 3000)
						rng.Read(data)
						runTableOps(t, diffConfig(ki, pi, shards), diffKeys, data, seed == 1)
					}
				})
			}
		}
	}
}

// snapBytes encodes a cut whole: its manifest, then each column as the
// column record the durable log would hold of it.
func snapBytes(s *wire.Snapshot) []byte {
	buf := wire.EncodeSnapshot(nil, s)
	for _, c := range s.Columns {
		buf = wire.AppendWALRecord(buf, &wire.WALRecord{Type: wire.WALColumn, SubWindow: c.SW, AFRs: c.Cells, Summaries: c.Summaries})
	}
	return buf
}

// roundTrip passes a cut through the durable codecs: the manifest through
// the snapshot codec, each column through a column record.
func roundTrip(t *testing.T, s *wire.Snapshot) *wire.Snapshot {
	t.Helper()
	buf := snapBytes(s)
	out, err := wire.DecodeSnapshot(buf[:len(wire.EncodeSnapshot(nil, s))])
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	for rest := buf[len(wire.EncodeSnapshot(nil, s)):]; len(rest) > 0; {
		rec, n, err := wire.DecodeWALRecord(rest)
		if err != nil {
			t.Fatalf("decode column record: %v", err)
		}
		out.Columns = append(out.Columns, wire.SnapColumn{SW: rec.SubWindow, Cells: rec.AFRs, Summaries: rec.Summaries})
		rest = rest[n:]
	}
	return out
}

// FuzzTableDifferential shares the driver: the first three bytes pick the
// configuration, the rest is the op stream.
func FuzzTableDifferential(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		data := make([]byte, 96)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed)
		f.Add(data)
	}
	// A finish, then a bulk of the sub-window after it through two keys:
	// folds ahead run at 3 and at 8 shards.
	for _, shards := range []byte{1, 2} {
		f.Add([]byte{0, 2, shards, 12, 1, 15, 0, 5, 1, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := diffConfig(int(data[0]), int(data[1]), []int{1, 3, 8}[int(data[2])%3])
		runTableOps(t, cfg, diffKeys, data[3:], true)
	})
}
