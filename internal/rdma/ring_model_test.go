package rdma

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

// This file holds the naive reference the PSN replay ring is tested
// against: the slice-based replay window the transport used before the
// ring (append to enroll, shift the whole slice to evict, linear scan to
// find a PSN, compact to hand off), each verb owning a copy of the records
// it carries where the ring names them in the cold ring or the arena, hot
// writes tracked in a map, and the same region, fault draws and accounting
// rules. A seeded differential test and FuzzTransportRing drive a real
// Transport and the model through one op stream and require identical
// results after every step.

type modelVerb struct {
	recs     []packet.AFR
	psn      uint32
	idx      uint64
	attempts int
	hot      bool
	applied  bool
}

type modelHotWrite struct {
	key packet.FlowKey
	seq uint32
}

type modelTransport struct {
	mr    *MemoryRegion
	nic   *NIC
	state QPState

	rows     map[packet.FlowKey]int
	hotSeq   map[int]modelHotWrite // row base → last applied write this drain interval
	hotOrder []int                 // bases in first-write order

	pending     []modelVerb
	unprotected map[uint64]int

	nextPSN     uint32
	verbIdx     uint64
	verbRetries int
	replayDepth int

	faults *faults.RDMASchedule
	shed   map[uint64]int
	stats  TransportStats
}

func newModelTransport(cfg TransportConfig) *modelTransport {
	mr := NewMemoryRegion(cfg.Rows, cfg.Lanes, cfg.BufCap)
	return &modelTransport{
		mr: mr, nic: NewNIC(mr),
		rows:        make(map[packet.FlowKey]int),
		hotSeq:      make(map[int]modelHotWrite),
		unprotected: make(map[uint64]int),
		verbRetries: cfg.VerbRetries,
		replayDepth: cfg.ReplayDepth,
		faults:      cfg.Faults,
		shed:        make(map[uint64]int),
	}
}

func (m *modelTransport) lose(recs []packet.AFR) {
	for _, r := range recs {
		m.shed[r.SubWindow]++
		m.stats.Lost++
	}
}

func (m *modelTransport) promote(k packet.FlowKey) bool {
	if _, ok := m.rows[k]; ok {
		return true
	}
	base, ok := m.mr.AllocRow()
	if ok {
		m.rows[k] = base
	}
	return ok
}

func (m *modelTransport) demote(k packet.FlowKey) { delete(m.rows, k) }

func (m *modelTransport) track(recs []packet.AFR, hot bool, idx uint64, attempt int, applied bool) {
	if len(m.pending) >= m.replayDepth {
		e := m.pending[0]
		n := copy(m.pending, m.pending[1:])
		m.pending = m.pending[:n]
		if !e.applied {
			m.lose(e.recs)
		} else {
			for _, r := range e.recs {
				m.unprotected[r.SubWindow]++
			}
		}
	}
	m.pending = append(m.pending, modelVerb{
		recs: slices.Clone(recs), psn: m.nextPSN, idx: idx, attempts: attempt, hot: hot, applied: applied,
	})
	m.nextPSN++
}

func (m *modelTransport) noteHotWrite(base int, rec packet.AFR) {
	if _, ok := m.hotSeq[base]; !ok {
		m.hotOrder = append(m.hotOrder, base)
	}
	m.hotSeq[base] = modelHotWrite{rec.Key, rec.Seq}
}

// post draws a verb's attempts up to the one that leaves the requester,
// -1 when retries run out.
func (m *modelTransport) post() (idx uint64, attempt int) {
	idx = m.verbIdx
	m.verbIdx++
	for a := 0; a <= m.verbRetries; a++ {
		if a > 0 {
			m.stats.VerbRetries++
		}
		if !m.faults.VerbErrorAt(idx, a) {
			return idx, a
		}
		m.stats.VerbErrors++
	}
	m.state = QPError
	m.stats.QPErrors++
	return idx, -1
}

// sendBatch classifies each record after its promotion: a hot one is its
// own WRITE verb at once, the cold ones one append verb after them all.
func (m *modelTransport) sendBatch(recs []packet.AFR, promote []bool) []Route {
	routes := make([]Route, len(recs))
	var run []packet.AFR
	var at []int
	for i, rec := range recs {
		if promote[i] {
			m.promote(rec.Key)
		}
		base, hot := m.rows[rec.Key]
		switch {
		case m.state != QPRts:
			routes[i] = Fallback
		case hot:
			routes[i] = m.write(base, rec)
		default:
			routes[i] = Cold
			run, at = append(run, rec), append(at, i)
		}
	}
	if len(run) > 0 {
		for _, i := range at[len(at)-m.appendRun(run):] {
			routes[i] = Fallback
		}
	}
	return routes
}

func (m *modelTransport) write(base int, rec packet.AFR) Route {
	idx, a := m.post()
	if a < 0 {
		return Fallback
	}
	applied := !m.faults.PSNDropAt(idx, a)
	if applied {
		if m.nic.Write(base+int(rec.SubWindow)%m.mr.Lanes(), rec.Attr) != nil {
			panic("model: hot write out of range")
		}
		m.noteHotWrite(base, rec)
	} else {
		m.stats.PSNDrops++
	}
	m.track([]packet.AFR{rec}, true, idx, a, applied)
	return Hot
}

// appendRun posts run as one append verb and returns how many records,
// from its end, fell back.
func (m *modelTransport) appendRun(run []packet.AFR) int {
	if m.state != QPRts {
		return len(run)
	}
	idx, a := m.post()
	if a < 0 {
		return len(run)
	}
	if m.faults.PSNDropAt(idx, a) {
		m.stats.PSNDrops++
		m.track(run, false, idx, a, false)
		return 0
	}
	_, landed := m.nic.AppendRun(run)
	if landed > 0 {
		m.track(run[:landed], false, idx, a, true)
	}
	for _, r := range run[landed:] {
		m.stats.Overflows++
		m.shed[r.SubWindow]++
	}
	return len(run) - landed
}

func (m *modelTransport) beginBoundary(sw uint64) {
	if m.state == QPRts && m.faults.QPErrorAt(sw) {
		m.state = QPError
		m.stats.QPErrors++
	}
}

func (m *modelTransport) beginCollect(sw uint64) {
	if m.faults.MRInvalidateAt(sw) {
		m.stats.MRInvalidations++
		m.reregister()
	}
	if m.state == QPError && !m.faults.OutageAt(sw) {
		m.state = QPRecovering
		m.stats.QPRecoveries++
		m.stats.MATRebuilds++
	}
}

func (m *modelTransport) reregister() {
	m.stats.Reregistrations++
	m.stats.MATRebuilds++
	m.mr.Invalidate()
	for k := range m.rows {
		m.rows[k], _ = m.mr.AllocRow()
	}
	for i := range m.pending {
		m.pending[i].applied = false
	}
	clear(m.hotSeq)
	m.hotOrder = m.hotOrder[:0]
	for sw, n := range m.unprotected {
		m.shed[sw] += n
		m.stats.Lost += n
	}
	clear(m.unprotected)
}

func (m *modelTransport) missingPSNs() []uint32 {
	var out []uint32
	for _, e := range m.pending {
		if !e.applied {
			out = append(out, e.psn)
		}
	}
	return out
}

func (m *modelTransport) replay(psns []uint32) int {
	if m.state == QPError {
		return 0
	}
	applied := 0
	for _, psn := range psns {
		for i := range m.pending {
			e := &m.pending[i]
			if e.psn != psn || e.applied {
				continue
			}
			e.attempts++
			base, hot := m.rows[e.recs[0].Key]
			hot = hot && e.hot // a demoted key's verb replays as a cold append
			if m.faults.VerbErrorAt(e.idx, e.attempts) {
				m.stats.VerbErrors++
				break
			}
			if m.faults.PSNDropAt(e.idx, e.attempts) {
				m.stats.PSNDrops++
				break
			}
			if hot {
				m.nic.Write(base+int(e.recs[0].SubWindow)%m.mr.Lanes(), e.recs[0].Attr)
				m.noteHotWrite(base, e.recs[0])
			} else if m.mr.bufCap-len(m.mr.buffer) < len(e.recs) {
				break // a run lands whole or not at all
			} else {
				m.nic.AppendRun(e.recs)
			}
			e.applied = true
			applied += len(e.recs)
			break
		}
	}
	m.stats.Replayed += applied
	return applied
}

func (m *modelTransport) takeUnapplied() []packet.AFR {
	var out []packet.AFR
	kept := m.pending[:0]
	for _, e := range m.pending {
		if e.applied {
			kept = append(kept, e)
		} else {
			out = append(out, e.recs...)
		}
	}
	m.pending = kept
	return out
}

func (m *modelTransport) drain(sw uint64) (cold, hot []packet.AFR) {
	cold = m.nic.Drain()
	lane := int(sw) % m.mr.Lanes()
	for _, base := range m.hotOrder {
		w := m.hotSeq[base]
		if cur, ok := m.rows[w.key]; !ok || cur != base {
			m.lose([]packet.AFR{{SubWindow: sw}}) // written, then demoted before the drain
			continue
		}
		hot = append(hot, packet.AFR{Key: w.key, Attr: m.mr.slots[base+lane], SubWindow: sw, Seq: w.seq})
		m.mr.ResetLane(base, lane)
	}
	for _, e := range m.pending {
		if !e.applied {
			m.lose(e.recs)
		}
	}
	m.pending = m.pending[:0]
	clear(m.hotSeq)
	m.hotOrder = m.hotOrder[:0]
	clear(m.unprotected)
	if m.state == QPRecovering {
		m.state = QPRts
	}
	return cold, hot
}

// Op kinds of the differential driver. An op is two bytes, kind then
// argument; kinds outside this list (and most of the byte range) send:
// odd ones from opKinds up a batch of one to eight records, the others a
// single record.
const (
	opReplayMissing = iota + 1
	opReplayStray
	opTakeUnapplied
	opDrain
	opReregister
	opPromote
	opDemote
	opBeginBoundary
	opBeginCollect
	opKinds // kind bytes are taken modulo 4*opKinds: three in four ops send
)

const ringKeys = 12

// runRingOps drives a fresh Transport and the model through ops, with the
// PSN counter started at firstPSN, and fails on the first divergence. It
// returns the transport for white-box assertions.
func runRingOps(t testing.TB, cfg TransportConfig, firstPSN uint32, ops []byte) *Transport {
	t.Helper()
	shed := make(map[uint64]int)
	cfg.OnShed = func(sw uint64, n int) { shed[sw] += n }
	tr := NewTransport(cfg)
	tr.head, tr.nextPSN = firstPSN, firstPSN
	if cfg.VerbRetries == 0 {
		cfg.VerbRetries = 3
	}
	m := newModelTransport(cfg)
	m.nextPSN = firstPSN

	var sw uint64
	var seq uint32
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg := int(ops[i])%(4*opKinds), ops[i+1]
		key := fk(int(arg) % ringKeys)
		switch kind {
		case opReplayMissing:
			if got, want := tr.Replay(tr.MissingPSNs()), m.replay(m.missingPSNs()); got != want {
				t.Fatalf("op %d: Replay applied %d verbs, model %d", i/2, got, want)
			}
		case opReplayStray:
			// PSNs around the window's edges: evicted, taken, acked,
			// never sent — and one live one, twice.
			psns := []uint32{m.nextPSN - uint32(arg) - 1, m.nextPSN + uint32(arg), m.nextPSN - 1, m.nextPSN - 1, firstPSN}
			if got, want := tr.Replay(psns), m.replay(psns); got != want {
				t.Fatalf("op %d: stray Replay applied %d verbs, model %d", i/2, got, want)
			}
		case opTakeUnapplied:
			if got, want := tr.TakeUnapplied(), m.takeUnapplied(); !slices.Equal(got, want) {
				t.Fatalf("op %d: TakeUnapplied = %v, model %v", i/2, got, want)
			}
		case opDrain:
			cold, hot := tr.Drain(sw)
			wantCold, wantHot := m.drain(sw)
			if !slices.Equal(cold, wantCold) || !slices.Equal(hot, wantHot) {
				t.Fatalf("op %d: Drain(%d) = %v / %v, model %v / %v", i/2, sw, cold, hot, wantCold, wantHot)
			}
			sw++
		case opReregister:
			tr.Reregister()
			m.reregister()
		case opPromote:
			if got, want := tr.Promote(key), m.promote(key); got != want {
				t.Fatalf("op %d: Promote = %v, model %v", i/2, got, want)
			}
		case opDemote:
			tr.Demote(key)
			m.demote(key)
		case opBeginBoundary:
			tr.BeginBoundary(sw)
			m.beginBoundary(sw)
		case opBeginCollect:
			tr.BeginCollect(sw)
			m.beginCollect(sw)
		default:
			// A batch mixes keys, sub-windows and promotions by the
			// argument's bits; a single send is a batch of one.
			n, bits := 1, int(arg)
			if kind >= opKinds && kind%2 == 1 {
				n = 1 + int(arg)%8
			}
			recs, promote := make([]packet.AFR, n), make([]bool, n)
			for j := range recs {
				recs[j] = packet.AFR{Key: fk((int(arg) + 5*j) % ringKeys), SubWindow: sw + uint64(bits>>j)%2,
					Seq: seq, Attr: uint64(arg) + uint64(j) + 1}
				promote[j] = n > 1 && (bits>>j)&3 == 3
				seq++
			}
			routes := make([]Route, n)
			tr.SendBatch(recs, promote, routes)
			if want := m.sendBatch(recs, promote); !slices.Equal(routes, want) {
				t.Fatalf("op %d: SendBatch(%v) routes = %v, model %v", i/2, recs, routes, want)
			}
		}
		if got, want := tr.PendingLen(), len(m.pending); got != want {
			t.Fatalf("op %d (kind %d): PendingLen = %d, model %d", i/2, kind, got, want)
		}
		if got, want := tr.MissingPSNs(), m.missingPSNs(); !slices.Equal(got, want) {
			t.Fatalf("op %d (kind %d): MissingPSNs = %v, model %v", i/2, kind, got, want)
		}
		if got, want := tr.Stats(), m.stats; got != want {
			t.Fatalf("op %d (kind %d): Stats = %+v, model %+v", i/2, kind, got, want)
		}
		if got, want := tr.State(), m.state; got != want {
			t.Fatalf("op %d (kind %d): state = %v, model %v", i/2, kind, got, want)
		}
		if kind < opKinds && !reflect.DeepEqual(shed, m.shed) {
			t.Fatalf("op %d (kind %d): shed charges = %v, model %v", i/2, kind, shed, m.shed)
		}
	}
	if !reflect.DeepEqual(shed, m.shed) {
		t.Fatalf("shed charges = %v, model %v", shed, m.shed)
	}
	return tr
}

// genRingOps draws n ops: a single or a batch send, or with probability
// rare one of kinds.
func genRingOps(rng *rand.Rand, n int, rare float64, kinds []byte) []byte {
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		kind := byte(opKinds + rng.Intn(2))
		if rng.Float64() < rare {
			kind = kinds[rng.Intn(len(kinds))]
		}
		ops = append(ops, kind, byte(rng.Intn(256)))
	}
	return ops
}

// TestTransportRingMatchesSliceWindow is the differential test of the
// replay ring: over seeded random op streams — single and batch sends,
// whose cold runs are one verb each, under verb errors, PSN drops and
// cold-ring overflow, replays of real and stray PSNs, hand-offs, drains,
// re-registrations, promotions and demotions, QP errors and recoveries —
// at depths that are and are not powers of two, with the PSN counter
// crossing the uint32 wrap, the ring returns the records, gaps, counters
// and shed charges the slice-based window does.
func TestTransportRingMatchesSliceWindow(t *testing.T) {
	allKinds := []byte{opReplayMissing, opReplayStray, opTakeUnapplied, opDrain, opReregister,
		opPromote, opDemote, opBeginBoundary, opBeginCollect}
	const firstPSN = math.MaxUint32 - 5
	rng := rand.New(rand.NewSource(2026))
	for _, depth := range []int{1, 3, 4, 100} {
		grew := false
		for trial := 0; trial < 30; trial++ {
			cfg := TransportConfig{Rows: 6, Lanes: 3, BufCap: 2 * depth, ReplayDepth: depth,
				VerbRetries: 1 + trial%3,
				Faults: &faults.RDMASchedule{Seed: rng.Uint64(),
					VerbError: rng.Float64() * 0.3, PSNDrop: rng.Float64() * 0.5,
					QPError:      faults.Fault{Prob: 0.2},
					MRInvalidate: faults.Fault{Prob: 0.1}}}
			if trial%2 == 0 {
				cfg.BufCap = 1 << 12 // no cold-buffer overflows
			}
			ops := genRingOps(rng, 40*depth+400, min(0.4, 8/float64(depth)), allKinds)
			tr := runRingOps(t, cfg, firstPSN, ops)
			grew = grew || len(tr.ring) >= 2*depth
		}
		// Sending on after a hand-off without draining leaves tombstones
		// between windowed verbs; the small depths must have walked the
		// ring-widening path that keeps those sequences exact.
		if (depth == 3 || depth == 4) && !grew {
			t.Errorf("depth %d: no trial widened the ring", depth)
		}
	}

	// The default depth: fill the window and run it full, with the rare
	// ops (no drain, which would empty it) striking a full window.
	noDrain := []byte{opReplayMissing, opReplayStray, opTakeUnapplied, opReregister, opPromote, opDemote}
	cfg := TransportConfig{Rows: 6, Lanes: 3, BufCap: 1 << 15, ReplayDepth: 8192,
		Faults: &faults.RDMASchedule{Seed: 7, VerbError: 0.05, PSNDrop: 0.1}}
	ops := genRingOps(rng, 8192+4096, 0.002, noDrain)
	ops = append(ops, opReplayMissing, 0, opTakeUnapplied, 0, opDrain, 0)
	tr := runRingOps(t, cfg, firstPSN, ops)
	if st := tr.Stats(); st.PSNDrops == 0 || st.Replayed == 0 {
		t.Fatalf("deep run exercised no replay: %+v", st)
	}
}

// FuzzTransportRing feeds the differential driver byte streams: a header
// choosing the depth, fault rates and first PSN, then the ops.
func FuzzTransportRing(f *testing.F) {
	f.Add([]byte{3, 40, 90, 250, 0, 7, 0, 9, 3, 0, 0, 1, 0, 2, 4, 0, 0, 3, 1, 0})
	f.Add([]byte{4, 0, 255, 0, 0, 1, 0, 2, 0, 3, 0, 4, 3, 0, 0, 5, 0, 6, 0, 7, 0, 8, 5, 0, 1, 0, 4, 0})
	f.Add([]byte{100, 20, 20, 255, 6, 1, 0, 1, 0, 1, 6, 1, 7, 1, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := TransportConfig{Rows: 6, Lanes: 3, BufCap: 64,
			ReplayDepth: 1 + int(data[0])%128,
			Faults: &faults.RDMASchedule{Seed: uint64(data[0]),
				VerbError: float64(data[1]) / 512, PSNDrop: float64(data[2]) / 512,
				QPError:      faults.Fault{Prob: 0.2},
				MRInvalidate: faults.Fault{Prob: 0.1}}}
		runRingOps(t, cfg, math.MaxUint32-uint32(data[3]), data[4:])
	})
}
