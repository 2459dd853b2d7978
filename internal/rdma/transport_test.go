package rdma

import (
	"math/rand"
	"slices"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

func healthyTransport(rows, lanes, bufCap int) *Transport {
	return NewTransport(TransportConfig{Rows: rows, Lanes: lanes, BufCap: bufCap})
}

func seqRec(key, sw int, seq uint32, attr uint64) packet.AFR {
	return packet.AFR{Key: fk(key), SubWindow: uint64(sw), Seq: seq, Attr: attr}
}

// TestTransportQPStateTable walks the QP lifecycle through every
// transition the state machine defines.
func TestTransportQPStateTable(t *testing.T) {
	steps := []struct {
		name string
		do   func(tr *Transport)
		want QPState
	}{
		{"fresh transport is RTS", func(tr *Transport) {}, QPRts},
		{"scheduled QP error faults to Error", func(tr *Transport) {
			tr.BeginBoundary(1)
		}, QPError},
		{"recovery refused during outage", func(tr *Transport) {
			tr.BeginCollect(1) // boundary 1 is inside the outage
		}, QPError},
		{"replay refused in Error", func(tr *Transport) {
			if tr.Replay([]uint32{0}) != 0 {
				t.Fatal("Error-state QP replayed a verb")
			}
		}, QPError},
		{"recovery enters Recovering once the outage lifts", func(tr *Transport) {
			tr.BeginCollect(3)
		}, QPRecovering},
		{"drain commits Recovering back to RTS", func(tr *Transport) {
			tr.Drain(3)
		}, QPRts},
	}
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 16,
		Faults: &faults.RDMASchedule{
			QPError: faults.Fault{Fixed: []uint64{1}},
			Outage:  faults.Fault{Fixed: []uint64{1, 2}},
		}})
	for _, s := range steps {
		s.do(tr)
		if got := tr.State(); got != s.want {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.want)
		}
	}
	st := tr.Stats()
	if st.QPErrors != 1 || st.QPRecoveries != 1 || st.MATRebuilds != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransportErrorFallsBackSeamlessly: a QP in Error takes nothing —
// every send reports not-delivered so the caller reroutes mid-sub-window.
func TestTransportErrorFallsBackSeamlessly(t *testing.T) {
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 16,
		Faults: &faults.RDMASchedule{QPError: faults.Fault{Fixed: []uint64{0}}}})
	tr.BeginBoundary(0)
	for i := 0; i < 5; i++ {
		if _, delivered := tr.Send(seqRec(i, 0, uint32(i), 1)); delivered {
			t.Fatal("Error-state QP accepted a verb")
		}
	}
	cold, hot := tr.Drain(0)
	if len(cold) != 0 || len(hot) != 0 {
		t.Fatal("Error-state QP delivered records")
	}
}

// TestTransportRetriesExhaustFaultQP: a verb that fails every RNR retry
// becomes a persistent CQ error — the QP faults to Error and the record
// falls back; the accumulated backoff is charged as virtual wait.
func TestTransportRetriesExhaustFaultQP(t *testing.T) {
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 16,
		VerbRetries: 2, Faults: &faults.RDMASchedule{VerbError: 1.0}})
	if _, delivered := tr.Send(seqRec(1, 0, 1, 7)); delivered {
		t.Fatal("always-failing verb was delivered")
	}
	if got := tr.State(); got != QPError {
		t.Fatalf("state = %v, want Error", got)
	}
	st := tr.Stats()
	if st.VerbErrors != 3 || st.VerbRetries != 2 || st.QPErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if tr.TakeRetryWait() <= 0 {
		t.Fatal("no virtual backoff charged for the RNR retries")
	}
	if tr.TakeRetryWait() != 0 {
		t.Fatal("TakeRetryWait did not reset")
	}
}

// TestTransportRNRRetryRecovers: a transiently failing verb succeeds on a
// later attempt without surfacing to the caller.
func TestTransportRNRRetryRecovers(t *testing.T) {
	// Seed 5 / 50%: verified by TestRDMAScheduleAttemptsIndependent to
	// contain verbs that fail attempt 0 and pass attempt 1. The deep
	// retry budget keeps every one of the 200 verbs within it.
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
		VerbRetries: 12, Faults: &faults.RDMASchedule{Seed: 5, VerbError: 0.5}})
	for i := 0; i < 200; i++ {
		tr.Send(seqRec(i, 0, uint32(i), 1))
		if tr.State() != QPRts {
			t.Fatalf("QP faulted at verb %d despite retry budget", i)
		}
	}
	st := tr.Stats()
	if st.VerbErrors == 0 || st.VerbRetries == 0 {
		t.Fatalf("no retries exercised: %+v", st)
	}
	cold, _ := tr.Drain(0)
	if len(cold) != 200 {
		t.Fatalf("drained %d cold records, want 200", len(cold))
	}
}

// TestTransportPSNGapReplay: dropped-in-flight verbs surface as PSN gaps,
// replay re-applies them, and the drain delivers every record with its
// true sequence number.
func TestTransportPSNGapReplay(t *testing.T) {
	// PSNDrop 1.0 on attempt parity would drop replays too; use a seeded
	// probabilistic schedule and loop replay rounds like the deployment's
	// bounded NACK loop does.
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
		Faults: &faults.RDMASchedule{Seed: 9, PSNDrop: 0.4}})
	tr.Promote(fk(0))
	const n = 50
	for i := 0; i < n; i++ {
		if _, delivered := tr.Send(seqRec(i%5, 0, uint32(i), uint64(i+1))); !delivered {
			t.Fatalf("send %d not delivered", i)
		}
	}
	if tr.Stats().PSNDrops == 0 {
		t.Fatal("schedule injected no PSN drops")
	}
	for round := 0; round < 8; round++ {
		gaps := tr.MissingPSNs()
		if len(gaps) == 0 {
			break
		}
		tr.Replay(gaps)
	}
	if left := len(tr.MissingPSNs()); left != 0 {
		t.Fatalf("%d PSN gaps left after replay rounds", left)
	}
	if tr.Stats().Replayed == 0 {
		t.Fatal("replay applied nothing")
	}
	cold, hot := tr.Drain(0)
	seen := map[uint32]bool{}
	for _, r := range append(cold, hot...) {
		if seen[r.Seq] {
			t.Fatalf("seq %d delivered twice", r.Seq)
		}
		seen[r.Seq] = true
	}
	// The hot key was written for seqs 0,5,..,45 but a lane holds one
	// value per (key, sub-window): only the last applied write survives.
	// Cold seqs (the other 40) must all be present.
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			continue
		}
		if !seen[uint32(i)] {
			t.Fatalf("cold seq %d lost", i)
		}
	}
	if len(hot) != 1 || tr.Stats().Lost != 0 {
		t.Fatalf("hot = %d records, lost = %d", len(hot), tr.Stats().Lost)
	}
}

// TestTransportReplayBudgetExhaustedFallsBack: gaps that replay cannot
// close are handed back as records for the packet path — none lost, none
// duplicated.
func TestTransportReplayBudgetExhaustedFallsBack(t *testing.T) {
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
		Faults: &faults.RDMASchedule{Seed: 2, PSNDrop: 1.0}})
	const n = 10
	for i := 0; i < n; i++ {
		tr.Send(seqRec(i, 0, uint32(i), 1))
	}
	tr.Replay(tr.MissingPSNs()) // every replay drops again
	fallback := tr.TakeUnapplied()
	if len(fallback) != n {
		t.Fatalf("fallback carried %d records, want %d", len(fallback), n)
	}
	cold, hot := tr.Drain(0)
	if len(cold)+len(hot) != 0 {
		t.Fatal("dropped verbs also drained")
	}
	if st := tr.Stats(); st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransportDrainShedsAbandonedGaps: unapplied verbs the caller never
// took for fallback are permanently lost at drain — charged to shed.
func TestTransportDrainShedsAbandonedGaps(t *testing.T) {
	var shed int
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
		Faults: &faults.RDMASchedule{Seed: 2, PSNDrop: 1.0},
		OnShed: func(sw uint64, n int) { shed += n }})
	for i := 0; i < 5; i++ {
		tr.Send(seqRec(i, 0, uint32(i), 1))
	}
	tr.Drain(0)
	if shed != 5 || tr.Stats().Lost != 5 {
		t.Fatalf("shed = %d, lost = %d, want 5/5", shed, tr.Stats().Lost)
	}
}

// TestTransportColdOverflowShedsAndFallsBack: a full cold buffer rejects
// the record, charges shed accounting, and hands it back for the packet
// path instead of silently dropping it.
func TestTransportColdOverflowShedsAndFallsBack(t *testing.T) {
	var shed int
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 2,
		OnShed: func(sw uint64, n int) { shed += n }})
	delivered := 0
	for i := 0; i < 5; i++ {
		if _, ok := tr.Send(seqRec(i, 0, uint32(i), 1)); ok {
			delivered++
		}
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want buffer capacity 2", delivered)
	}
	st := tr.Stats()
	if st.Overflows != 3 || shed != 3 {
		t.Fatalf("overflows = %d shed = %d", st.Overflows, shed)
	}
	if tr.State() != QPRts {
		t.Fatal("overflow must not fault the QP")
	}
}

// TestTransportReregisterReplaysApplied: re-registration (QP reset or
// controller failover) wipes the region; the replay window re-applies
// every applied-but-undrained verb into the fresh registration and the
// AddressMAT is rebuilt, so the drain still delivers everything.
func TestTransportReregisterReplaysApplied(t *testing.T) {
	tr := healthyTransport(4, 3, 1<<10)
	tr.Promote(fk(0))
	tr.Promote(fk(1))
	for i := 0; i < 20; i++ {
		tr.Send(seqRec(i%4, 0, uint32(i), uint64(i+1)))
	}
	tr.Reregister()
	if got := tr.MATLen(); got != 2 {
		t.Fatalf("MAT entries after reregister = %d, want 2", got)
	}
	if gaps := tr.MissingPSNs(); len(gaps) != 20 {
		t.Fatalf("reregister marked %d verbs for replay, want all 20", len(gaps))
	}
	tr.Replay(tr.MissingPSNs())
	if left := len(tr.MissingPSNs()); left != 0 {
		t.Fatalf("%d gaps after healthy replay", left)
	}
	cold, hot := tr.Drain(0)
	// Keys 0 and 1 are hot (one lane value each); keys 2 and 3 are cold
	// (5 appends each).
	if len(hot) != 2 || len(cold) != 10 {
		t.Fatalf("drained hot=%d cold=%d, want 2/10", len(hot), len(cold))
	}
	for _, r := range hot {
		// The last write wins per lane: seqs 16 (key 0) and 17 (key 1).
		if r.Attr != uint64(r.Seq+1) {
			t.Fatalf("hot record %v lost its replayed value", r)
		}
	}
	st := tr.Stats()
	if st.Reregistrations != 1 || st.MATRebuilds != 1 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransportEvictionBeyondReplayDepth: the replay window is bounded.
// An evicted unapplied verb is lost immediately; an evicted applied verb
// survives unless a re-registration strikes before the drain.
func TestTransportEvictionBeyondReplayDepth(t *testing.T) {
	t.Run("unapplied evictions shed immediately", func(t *testing.T) {
		var shed int
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
			ReplayDepth: 4,
			Faults:      &faults.RDMASchedule{Seed: 2, PSNDrop: 1.0},
			OnShed:      func(sw uint64, n int) { shed += n }})
		for i := 0; i < 10; i++ {
			tr.Send(seqRec(i, 0, uint32(i), 1))
		}
		if shed != 6 || tr.Stats().Lost != 6 {
			t.Fatalf("shed = %d lost = %d, want 6 evictions", shed, tr.Stats().Lost)
		}
	})
	t.Run("applied evictions lost only under reregistration", func(t *testing.T) {
		var shed int
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
			ReplayDepth: 4, OnShed: func(sw uint64, n int) { shed += n }})
		for i := 0; i < 10; i++ {
			tr.Send(seqRec(i, 0, uint32(i), 1))
		}
		if shed != 0 {
			t.Fatal("healthy applied evictions must not shed")
		}
		tr.Reregister() // the 6 evicted applied verbs cannot be replayed
		if shed != 6 || tr.Stats().Lost != 6 {
			t.Fatalf("shed = %d lost = %d after reregister, want 6", shed, tr.Stats().Lost)
		}
		tr.Replay(tr.MissingPSNs())
		cold, _ := tr.Drain(0)
		if len(cold) != 4 {
			t.Fatalf("drained %d cold records, want the 4 still in the window", len(cold))
		}
	})
}

// TestTransportMRInvalidateAtBoundary: a scheduled region invalidation at
// BeginCollect behaves exactly like a reregistration.
func TestTransportMRInvalidateAtBoundary(t *testing.T) {
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 1 << 10,
		Faults: &faults.RDMASchedule{MRInvalidate: faults.Fault{Fixed: []uint64{0}}}})
	for i := 0; i < 8; i++ {
		tr.Send(seqRec(i, 0, uint32(i), 1))
	}
	tr.BeginCollect(0)
	if st := tr.Stats(); st.MRInvalidations != 1 || st.Reregistrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if gaps := tr.MissingPSNs(); len(gaps) != 8 {
		t.Fatalf("invalidation left %d replayable gaps, want 8", len(gaps))
	}
	tr.Replay(tr.MissingPSNs())
	cold, _ := tr.Drain(0)
	if len(cold) != 8 {
		t.Fatalf("drained %d, want all 8 replayed", len(cold))
	}
}

// TestTransportPromoteDemote: promotion publishes a MAT entry, demotion
// withdraws it, and the row table bounds promotions.
func TestTransportPromoteDemote(t *testing.T) {
	tr := healthyTransport(2, 3, 16)
	if !tr.Promote(fk(1)) || !tr.Promote(fk(2)) {
		t.Fatal("promotion within capacity failed")
	}
	if !tr.Promote(fk(1)) {
		t.Fatal("re-promotion of an installed key must succeed")
	}
	if tr.Promote(fk(3)) {
		t.Fatal("promotion beyond row capacity succeeded")
	}
	if tr.MATLen() != 2 || tr.HotRows() != 2 {
		t.Fatalf("MAT = %d rows = %d", tr.MATLen(), tr.HotRows())
	}
	tr.Demote(fk(1))
	if tr.MATLen() != 1 || tr.HotRows() != 1 {
		t.Fatal("demotion did not withdraw the entry")
	}
	if _, delivered := tr.Send(seqRec(1, 0, 9, 5)); !delivered {
		t.Fatal("demoted key must still send cold")
	}
}

// TestTransportHandoffPropertyRandomSchedules is the PSN-gap property
// test: over randomized fault schedules, the union of drained and
// fallback records carries every sent record's sequence number exactly
// once — the RDMA→packet handoff never double-counts or loses a record
// while the replay window covers the traffic.
func TestTransportHandoffPropertyRandomSchedules(t *testing.T) {
	meta := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 40; trial++ {
		sched := &faults.RDMASchedule{
			Seed:      meta.Uint64(),
			VerbError: meta.Float64() * 0.6,
			PSNDrop:   meta.Float64() * 0.6,
		}
		var shed int
		tr := NewTransport(TransportConfig{Rows: 8, Lanes: 3, BufCap: 1 << 10,
			Faults: sched, OnShed: func(sw uint64, n int) { shed += n }})
		hotKeys := meta.Intn(5)
		for k := 0; k < hotKeys; k++ {
			tr.Promote(fk(k))
		}
		n := 20 + meta.Intn(60)
		sent := map[uint32]bool{}
		fallback := map[uint32]bool{}
		// Each record gets a distinct key, as the deployment's Phase 1
		// enumeration guarantees per sub-window (hot keys overwrite
		// their lane, so duplicate keys would legitimately coalesce).
		for i := 0; i < n; i++ {
			rec := seqRec(i, 0, uint32(i), uint64(i+1))
			if i < hotKeys {
				tr.Promote(fk(i))
			}
			_, delivered := tr.Send(rec)
			sent[rec.Seq] = true
			if !delivered {
				// Mid-sub-window fallback: retries exhausted (QP now in
				// Error) — the packet path carries it from here on.
				fallback[rec.Seq] = true
			}
		}
		// Boundary: recover the QP if it faulted, then run the bounded
		// NACK/replay loop the deployment drives.
		tr.BeginCollect(0)
		for round := 0; round < 4; round++ {
			gaps := tr.MissingPSNs()
			if len(gaps) == 0 {
				break
			}
			tr.Replay(gaps)
		}
		for _, r := range tr.TakeUnapplied() {
			if fallback[r.Seq] {
				t.Fatalf("trial %d: seq %d handed to fallback twice", trial, r.Seq)
			}
			fallback[r.Seq] = true
		}
		cold, hot := tr.Drain(0)
		got := map[uint32]bool{}
		for _, r := range append(cold, hot...) {
			if got[r.Seq] {
				t.Fatalf("trial %d: seq %d drained twice", trial, r.Seq)
			}
			if fallback[r.Seq] {
				t.Fatalf("trial %d: seq %d both drained and fallen back", trial, r.Seq)
			}
			got[r.Seq] = true
		}
		for s := range fallback {
			got[s] = true
		}
		for s := range sent {
			if !got[s] {
				t.Fatalf("trial %d: seq %d lost across the handoff (sent %d, drained %d, fallback %d)",
					trial, s, n, len(cold)+len(hot), len(fallback))
			}
		}
		if len(got) != len(sent) {
			t.Fatalf("trial %d: delivered %d records, sent %d", trial, len(got), len(sent))
		}
		if shed != 0 || tr.Stats().Lost != 0 {
			t.Fatalf("trial %d: spurious loss: shed = %d lost = %d", trial, shed, tr.Stats().Lost)
		}
	}
}

// TestTransportSendZeroAllocs pins the steady-state paths at zero
// allocations: the hot-row write and the cold append into a replay window
// that is full (so every send also evicts), and a boundary's drain once
// the cold ring has grown to the boundary's size.
func TestTransportSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const depth = 8192
	tr := healthyTransport(4, 3, 1<<15)
	tr.Promote(fk(0))
	fill := func() {
		for i := 0; i < depth+512; i++ {
			tr.Send(seqRec(i%2, 0, uint32(i), 1))
		}
		if got := tr.PendingLen(); got != depth {
			t.Fatalf("window holds %d verbs, want a full %d", got, depth)
		}
	}
	fill()
	hotRec := seqRec(0, 0, 1, 1)
	if got := testing.AllocsPerRun(256, func() { tr.Send(hotRec) }); got != 0 {
		t.Fatalf("hot send into a full window allocates %.1f allocs/op, want 0", got)
	}
	coldRec := seqRec(1, 0, 2, 1)
	if got := testing.AllocsPerRun(256, func() { tr.Send(coldRec) }); got != 0 {
		t.Fatalf("cold send into a full window allocates %.1f allocs/op, want 0", got)
	}
	if got := tr.PendingLen(); got != depth {
		t.Fatalf("window holds %d verbs after the measured sends, want %d", got, depth)
	}
	// One boundary: the collect-time calls of a healthy window, then the
	// drain. The first boundary grows the cold ring.
	boundary := func() {
		for i := 0; i < 64; i++ {
			tr.Send(seqRec(i%2, 0, uint32(i), 1))
		}
		tr.BeginCollect(0)
		if tr.MissingPSNs() != nil || tr.TakeUnapplied() != nil {
			t.Fatal("healthy window reported gaps")
		}
		if cold, hot := tr.Drain(0); len(cold) == 0 || len(hot) != 1 {
			t.Fatalf("drained cold=%d hot=%d", len(cold), len(hot))
		}
	}
	if got := testing.AllocsPerRun(64, boundary); got != 0 {
		t.Fatalf("steady-state boundary allocates %.1f allocs/op, want 0", got)
	}
}

// TestSendBatchZeroAlloc pins a steady-state delivery batch — 128 records,
// hot and cold, some flagged for promotion, into a full replay window, on
// a cold ring and an arena grown by an earlier boundary of the same shape —
// at zero allocations.
func TestSendBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const depth, batch, measured = 8192, 128, 64
	tr := healthyTransport(4, 3, 1<<17)
	recs := make([]packet.AFR, batch)
	promote := make([]bool, batch)
	for i := range recs {
		recs[i] = seqRec(i%8, 0, uint32(i), 1)
		promote[i] = i%8 == 0
	}
	routes := make([]Route, batch)
	send := func() { tr.SendBatch(recs, promote, routes) }
	// A batch is 16 hot WRITEs and one append verb: fill the window, then
	// run it full — once untimed, then measured after the drain.
	fill := func() {
		for tr.PendingLen() < depth {
			send()
		}
	}
	fill()
	for i := 0; i <= measured; i++ {
		send()
	}
	tr.Drain(0)
	fill()
	if got := testing.AllocsPerRun(measured, send); got != 0 {
		t.Fatalf("steady-state SendBatch allocates %.1f allocs/op, want 0", got)
	}
	if got := tr.PendingLen(); got != depth {
		t.Fatalf("window holds %d verbs, want a full %d", got, depth)
	}
	if st := tr.Stats(); routes[0] != Hot || routes[1] != Cold || st != (TransportStats{}) {
		t.Fatalf("routes = %v..., stats %+v: want the promoted key hot, the others cold, no fault or overflow",
			routes[:2], st)
	}
}

// dropSchedule finds the seed under which PSNDropAt answers want for each
// (verb index, attempt) in order — a fixed fault script for one test.
func dropSchedule(t *testing.T, want ...[3]int) *faults.RDMASchedule {
	t.Helper()
	for seed := uint64(0); seed < 1<<16; seed++ {
		s := &faults.RDMASchedule{Seed: seed, PSNDrop: 0.5}
		ok := true
		for _, w := range want {
			ok = ok && s.PSNDropAt(uint64(w[0]), w[1]) == (w[2] == 1)
		}
		if ok {
			return s
		}
	}
	t.Fatalf("no seed scripts %v", want)
	return nil
}

// TestSendBatchAppendVerb pins the batch send's contract: each hot record
// is a WRITE verb, the batch's cold records are one append verb, and the
// replay ring, the hand-off and the shed work per verb while routes,
// fallbacks and charges stay per record.
func TestSendBatchAppendVerb(t *testing.T) {
	coldRun := func(first, n, sw int) []packet.AFR {
		recs := make([]packet.AFR, n)
		for i := range recs {
			recs[i] = seqRec(first+i, sw, uint32(first+i), uint64(100+first+i))
		}
		return recs
	}
	send := func(tr *Transport, recs []packet.AFR, promote ...int) []Route {
		flags, routes := make([]bool, len(recs)), make([]Route, len(recs))
		for _, i := range promote {
			flags[i] = true
		}
		tr.SendBatch(recs, flags, routes)
		return routes
	}

	t.Run("one verb per cold run", func(t *testing.T) {
		tr := healthyTransport(4, 3, 64)
		tr.Promote(fk(0))
		recs := coldRun(0, 10, 0)
		// Key 5 is promoted by its own record's flag: hot from that record.
		routes := send(tr, recs, 5)
		want := []Route{Hot, Cold, Cold, Cold, Cold, Hot, Cold, Cold, Cold, Cold}
		if !slices.Equal(routes, want) {
			t.Fatalf("routes = %v, want %v", routes, want)
		}
		if tr.PendingLen() != 3 || tr.NIC().Writes != 2 || tr.NIC().Appends != 1 {
			t.Fatalf("%d verbs, %d writes, %d appends: want two WRITEs and one append",
				tr.PendingLen(), tr.NIC().Writes, tr.NIC().Appends)
		}
		cold, hot := tr.Drain(0)
		wantCold := append(slices.Clone(recs[1:5]), recs[6:]...)
		if !slices.Equal(cold, wantCold) || len(hot) != 2 {
			t.Fatalf("drained cold %v hot %v, want the cold records in order and two hot", cold, hot)
		}
	})

	t.Run("a QP fault falls back per record", func(t *testing.T) {
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 64, VerbRetries: 1,
			Faults: &faults.RDMASchedule{VerbError: 1}})
		tr.Promote(fk(1))
		// The WRITE of record 1 exhausts its retries before the append is
		// posted: the QP is down for the run and for record 2.
		routes := send(tr, coldRun(0, 4, 0))
		if want := []Route{Fallback, Fallback, Fallback, Fallback}; !slices.Equal(routes, want) {
			t.Fatalf("routes = %v, want %v", routes, want)
		}
		if st := tr.Stats(); st.QPErrors != 1 || st.VerbErrors != 2 || tr.PendingLen() != 0 {
			t.Fatalf("stats = %+v, pending %d", st, tr.PendingLen())
		}
	})

	t.Run("a dropped run replays whole", func(t *testing.T) {
		sched := dropSchedule(t, [3]int{0, 0, 1}, [3]int{0, 1, 0})
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 64, Faults: sched})
		recs := coldRun(0, 6, 0)
		if routes := send(tr, recs); slices.Contains(routes, Fallback) || slices.Contains(routes, Hot) {
			t.Fatalf("routes = %v, want every record cold", routes)
		}
		gaps := tr.MissingPSNs()
		if len(gaps) != 1 || tr.Stats().PSNDrops != 1 {
			t.Fatalf("gaps %v, PSN drops %d: want one verb lost", gaps, tr.Stats().PSNDrops)
		}
		if n := tr.Replay(gaps); n != 6 || tr.Stats().Replayed != 6 {
			t.Fatalf("replay applied %d records (Replayed %d), want the run's 6", n, tr.Stats().Replayed)
		}
		if cold, _ := tr.Drain(0); !slices.Equal(cold, recs) {
			t.Fatalf("drained %v, want %v", cold, recs)
		}
	})

	t.Run("TakeUnapplied returns the runs in order", func(t *testing.T) {
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 64,
			Faults: &faults.RDMASchedule{Seed: 2, PSNDrop: 1}})
		first, second := coldRun(0, 3, 0), coldRun(3, 4, 1)
		send(tr, first)
		send(tr, second)
		if gaps := tr.MissingPSNs(); len(gaps) != 2 {
			t.Fatalf("gaps = %v, want one per run", gaps)
		}
		tr.Replay(tr.MissingPSNs()) // every replay drops again
		want := append(slices.Clone(first), second...)
		if got := tr.TakeUnapplied(); !slices.Equal(got, want) {
			t.Fatalf("hand-off = %v, want %v", got, want)
		}
		if st := tr.Stats(); st.Lost != 0 || tr.PendingLen() != 0 {
			t.Fatalf("stats = %+v, pending %d", st, tr.PendingLen())
		}
	})

	t.Run("an overflow splits the run", func(t *testing.T) {
		shed := map[uint64]int{}
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 5,
			OnShed: func(sw uint64, n int) { shed[sw] += n }})
		send(tr, coldRun(0, 3, 0))
		recs := coldRun(3, 4, 1)
		if routes, want := send(tr, recs), []Route{Cold, Cold, Fallback, Fallback}; !slices.Equal(routes, want) {
			t.Fatalf("routes = %v, want the prefix that fits cold and the tail back", routes)
		}
		if st := tr.Stats(); st.Overflows != 2 || shed[1] != 2 || tr.PendingLen() != 2 {
			t.Fatalf("stats = %+v, shed %v, pending %d", st, shed, tr.PendingLen())
		}
		if cold, _ := tr.Drain(1); len(cold) != 5 || cold[4] != recs[1] {
			t.Fatalf("drained %v", cold)
		}
	})

	t.Run("eviction charges the run per record", func(t *testing.T) {
		shed := map[uint64]int{}
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 64, ReplayDepth: 1,
			Faults: &faults.RDMASchedule{Seed: 2, PSNDrop: 1},
			OnShed: func(sw uint64, n int) { shed[sw] += n }})
		run := append(coldRun(0, 2, 0), coldRun(2, 3, 1)...)
		send(tr, run)
		send(tr, coldRun(5, 4, 2)) // evicts the first run, unapplied
		if st := tr.Stats(); st.Lost != 5 || shed[0] != 2 || shed[1] != 3 || shed[2] != 0 {
			t.Fatalf("lost %d, shed %v: want the evicted run's 5 records by sub-window", st.Lost, shed)
		}
		if got := tr.TakeUnapplied(); len(got) != 4 || got[0].Seq != 5 {
			t.Fatalf("hand-off = %v, want the second run", got)
		}
	})

	t.Run("re-registration replays the runs it destroyed", func(t *testing.T) {
		// Verb 0 (the first run) is lost in flight and verb 1 (the second)
		// lands in the ring at 0; both replay. The first run now lands
		// where the second did: the second must come back from a copy
		// taken before the ring was wiped.
		sched := dropSchedule(t, [3]int{0, 0, 1}, [3]int{1, 0, 0}, [3]int{2, 0, 0},
			[3]int{0, 1, 0}, [3]int{1, 1, 0}, [3]int{2, 1, 0})
		tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 64, Faults: sched})
		first, second := coldRun(1, 3, 0), coldRun(4, 2, 0)
		send(tr, first)
		send(tr, second)
		tr.Promote(fk(0))
		send(tr, []packet.AFR{seqRec(0, 0, 0, 7)}) // verb 2: a WRITE
		tr.Reregister()
		if gaps := tr.MissingPSNs(); len(gaps) != 3 {
			t.Fatalf("gaps = %v, want all three verbs", gaps)
		}
		if n := tr.Replay(tr.MissingPSNs()); n != 6 {
			t.Fatalf("replay applied %d records, want 6", n)
		}
		cold, hot := tr.Drain(0)
		if want := append(slices.Clone(first), second...); !slices.Equal(cold, want) {
			t.Fatalf("drained cold %v, want %v", cold, want)
		}
		if len(hot) != 1 || hot[0] != seqRec(0, 0, 0, 7) || tr.Stats().Lost != 0 {
			t.Fatalf("hot %v, lost %d", hot, tr.Stats().Lost)
		}
	})
}

// TestTransportDrainedRingLiveUntilNextSend: Drain hands over the cold
// ring itself, intact until the next send appends over it, and the hot
// readback, a reused buffer intact until the next Drain.
func TestTransportDrainedRingLiveUntilNextSend(t *testing.T) {
	tr := healthyTransport(4, 3, 1<<10)
	tr.Promote(fk(0))
	for i := 0; i < 6; i++ {
		tr.Send(seqRec(i%3, 0, uint32(i), uint64(10+i)))
	}
	cold, hot := tr.Drain(0)
	wantCold, wantHot := slices.Clone(cold), slices.Clone(hot)
	if len(cold) != 4 || len(hot) != 1 {
		t.Fatalf("drained cold=%d hot=%d, want 4/1", len(cold), len(hot))
	}
	// Anything but a send leaves the ring alone.
	tr.BeginBoundary(1)
	tr.BeginCollect(1)
	tr.Replay(tr.MissingPSNs())
	tr.TakeUnapplied()
	tr.Reregister()
	if !slices.Equal(cold, wantCold) || !slices.Equal(hot, wantHot) {
		t.Fatalf("drained records changed before the next send: %v / %v, were %v / %v", cold, hot, wantCold, wantHot)
	}
	// The next send lands over the ring's head; the hot readback lives on.
	tr.Send(seqRec(1, 1, 100, 50))
	if cold[0] != seqRec(1, 1, 100, 50) || cold[1] != wantCold[1] {
		t.Fatalf("ring after the next send = %v, want the new record over the first only", cold[:2])
	}
	if hot[0] != wantHot[0] {
		t.Fatalf("hot readback changed before the next drain: %v, was %v", hot[0], wantHot[0])
	}
	for i := 1; i < 6; i++ {
		tr.Send(seqRec(i%3, 1, uint32(100+i), uint64(50+i)))
	}
	cold2, hot2 := tr.Drain(1)
	if len(cold2) != 5 || len(hot2) != 1 || cold2[1].Seq != 101 || hot2[0].Seq != 103 {
		t.Fatalf("second drain = %v / %v", cold2, hot2)
	}
}

// TestTransportHotReadbackInFirstWriteOrder: Drain emits hot records in
// the order their rows were first written this interval, the same on
// every run, not in a map's iteration order.
func TestTransportHotReadbackInFirstWriteOrder(t *testing.T) {
	const keys = 32
	tr := healthyTransport(keys, 3, 16)
	for k := 0; k < keys; k++ {
		tr.Promote(fk(k))
	}
	// Write in a scrambled order, every key twice.
	var order []int
	for i := 0; i < 2*keys; i++ {
		k := (i * 13) % keys
		if i < keys {
			order = append(order, k)
		}
		tr.Send(seqRec(k, 0, uint32(i), uint64(i+1)))
	}
	_, hot := tr.Drain(0)
	if len(hot) != keys {
		t.Fatalf("drained %d hot records, want %d", len(hot), keys)
	}
	for i, r := range hot {
		// The lane holds the second write; its seq is keys + position.
		if r.Key != fk(order[i]) || r.Seq != uint32(keys+i) || r.Attr != uint64(keys+i+1) {
			t.Fatalf("hot[%d] = %+v, want key %d seq %d", i, r, order[i], keys+i)
		}
	}
}

// TestTransportDemotedHotVerbReplaysCold: a hot verb dropped in flight
// whose key is demoted before the replay has no row to write — it must
// land as a cold append, not in whichever row sits at address 0.
func TestTransportDemotedHotVerbReplaysCold(t *testing.T) {
	// Seed 10 drops verb 1's first attempt and passes its second.
	sched := &faults.RDMASchedule{Seed: 10, PSNDrop: 0.5}
	if sched.PSNDropAt(0, 0) || !sched.PSNDropAt(1, 0) || sched.PSNDropAt(1, 1) {
		t.Fatal("seed no longer yields pass / drop / pass-on-replay for verbs 0 and 1")
	}
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 16, Faults: sched})
	tr.Promote(fk(0)) // row at address 0
	tr.Promote(fk(1))
	tr.Send(seqRec(0, 0, 0, 7)) // verb 0: applied into row 0
	tr.Send(seqRec(1, 0, 1, 9)) // verb 1: hot, dropped in flight
	tr.Demote(fk(1))
	if n := tr.Replay(tr.MissingPSNs()); n != 1 {
		t.Fatalf("replay applied %d verbs, want 1", n)
	}
	cold, hot := tr.Drain(0)
	if len(hot) != 1 || hot[0] != seqRec(0, 0, 0, 7) {
		t.Fatalf("row 0 was corrupted by the replay: hot = %v", hot)
	}
	if len(cold) != 1 || cold[0] != seqRec(1, 0, 1, 9) {
		t.Fatalf("demoted key's verb did not replay as a cold append: cold = %v", cold)
	}
}

// TestTransportDrainChargesDemotedHotWrite: a hot write whose key is
// demoted before the drain cannot be read back; the drop is charged to
// shed and Lost instead of vanishing.
func TestTransportDrainChargesDemotedHotWrite(t *testing.T) {
	shed := map[uint64]int{}
	tr := NewTransport(TransportConfig{Rows: 4, Lanes: 3, BufCap: 16,
		OnShed: func(sw uint64, n int) { shed[sw] += n }})
	tr.Promote(fk(0))
	tr.Promote(fk(1))
	tr.Send(seqRec(0, 2, 0, 7))
	tr.Send(seqRec(1, 2, 1, 9))
	tr.Demote(fk(0))
	_, hot := tr.Drain(2)
	if len(hot) != 1 || hot[0].Key != fk(1) {
		t.Fatalf("hot = %v, want key 1 only", hot)
	}
	if shed[2] != 1 || tr.Stats().Lost != 1 {
		t.Fatalf("shed = %v lost = %d, want the demoted write charged once", shed, tr.Stats().Lost)
	}
}
