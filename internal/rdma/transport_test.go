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
	if st := tr.Stats(); st.Fallbacks != 5 {
		t.Fatalf("fallbacks = %d, want 5", st.Fallbacks)
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
	if st.VerbErrors != 3 || st.VerbRetries != 2 || st.QPErrors != 1 || st.Fallbacks != 1 {
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
	if st := tr.Stats(); st.Lost != 0 || st.Fallbacks != n {
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
	if st.Overflows != 3 || st.Fallbacks != 3 || shed != 3 {
		t.Fatalf("overflows = %d fallbacks = %d shed = %d", st.Overflows, st.Fallbacks, shed)
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
// both halves of the cold buffer have grown to the boundary's size.
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
	// drain. The first two boundaries grow the cold buffer's two halves.
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
// hot and cold, some flagged for promotion, into a full replay window on
// cold-buffer halves grown by earlier boundaries — at zero allocations.
func TestSendBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const depth, batch = 8192, 128
	tr := healthyTransport(4, 3, 1<<16)
	recs := make([]packet.AFR, batch)
	promote := make([]bool, batch)
	for i := range recs {
		recs[i] = seqRec(i%8, 0, uint32(i), 1)
		promote[i] = i%8 == 0
	}
	routes := make([]Route, batch)
	send := func() { tr.SendBatch(recs, promote, routes) }
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*depth/batch; i++ {
			send()
		}
		tr.Drain(0)
	}
	for i := 0; i < depth/batch; i++ {
		send()
	}
	if got := testing.AllocsPerRun(64, send); got != 0 {
		t.Fatalf("steady-state SendBatch allocates %.1f allocs/op, want 0", got)
	}
	if got := tr.PendingLen(); got != depth {
		t.Fatalf("window holds %d verbs, want a full %d", got, depth)
	}
	if routes[0] != Hot || routes[1] != Cold {
		t.Fatalf("routes = %v..., want the promoted key hot and the others cold", routes[:2])
	}
}

// TestSendBatchMatchesSends: a batch under a verb-fault schedule leaves
// the transport exactly where Promote-then-Send per record leaves a twin:
// the same routes, counters, gaps, fallbacks and drained records. Each
// promotion lands just before its own record, so a key promoted mid-batch
// goes hot from that record on.
func TestSendBatchMatchesSends(t *testing.T) {
	sched := &faults.RDMASchedule{Seed: 5, VerbError: 0.2, PSNDrop: 0.1}
	newTr := func() *Transport {
		return NewTransport(TransportConfig{Rows: 6, Lanes: 3, BufCap: 40, ReplayDepth: 30, Faults: sched})
	}
	one, batched := newTr(), newTr()
	rng := rand.New(rand.NewSource(3))
	for sw := 0; sw < 6; sw++ {
		n := 1 + rng.Intn(60)
		recs, promote := make([]packet.AFR, n), make([]bool, n)
		for i := range recs {
			recs[i] = seqRec(rng.Intn(12), sw, uint32(i), uint64(rng.Intn(100)))
			promote[i] = rng.Intn(6) == 0
		}
		want := make([]Route, n)
		for i, rec := range recs {
			if promote[i] {
				one.Promote(rec.Key)
			}
			hot, delivered := one.Send(rec)
			switch {
			case !delivered:
				want[i] = Fallback
			case hot:
				want[i] = Hot
			default:
				want[i] = Cold
			}
		}
		got := make([]Route, n)
		batched.SendBatch(recs, promote, got)
		if !slices.Equal(got, want) {
			t.Fatalf("sub-window %d: routes %v, one at a time %v", sw, got, want)
		}
		if !slices.Equal(batched.MissingPSNs(), one.MissingPSNs()) ||
			!slices.Equal(batched.TakeUnapplied(), one.TakeUnapplied()) {
			t.Fatalf("sub-window %d: gaps or fallbacks differ", sw)
		}
		gc, gh := batched.Drain(uint64(sw))
		wc, wh := one.Drain(uint64(sw))
		if !slices.Equal(gc, wc) || !slices.Equal(gh, wh) {
			t.Fatalf("sub-window %d: drained cold %v hot %v, one at a time cold %v hot %v", sw, gc, gh, wc, wh)
		}
		if batched.Stats() != one.Stats() || batched.HotRows() != one.HotRows() {
			t.Fatalf("sub-window %d: stats %+v, one at a time %+v", sw, batched.Stats(), one.Stats())
		}
	}
}

// TestTransportDrainBuffersLiveUntilNextDrain: the slices Drain returns
// are the transport's own buffers — untouched by the sends that follow,
// reused by the drain after.
func TestTransportDrainBuffersLiveUntilNextDrain(t *testing.T) {
	tr := healthyTransport(4, 3, 1<<10)
	tr.Promote(fk(0))
	for i := 0; i < 6; i++ {
		tr.Send(seqRec(i%3, 0, uint32(i), uint64(10+i)))
	}
	cold, hot := tr.Drain(0)
	wantCold, wantHot := append([]packet.AFR(nil), cold...), append([]packet.AFR(nil), hot...)
	if len(cold) != 4 || len(hot) != 1 {
		t.Fatalf("drained cold=%d hot=%d, want 4/1", len(cold), len(hot))
	}
	for i := 0; i < 6; i++ {
		tr.Send(seqRec(i%3, 1, uint32(100+i), uint64(50+i)))
	}
	for i := range wantCold {
		if cold[i] != wantCold[i] {
			t.Fatalf("cold[%d] changed before the next drain: %v, was %v", i, cold[i], wantCold[i])
		}
	}
	if hot[0] != wantHot[0] {
		t.Fatalf("hot readback changed before the next drain: %v, was %v", hot[0], wantHot[0])
	}
	cold2, hot2 := tr.Drain(1)
	if len(cold2) != 4 || len(hot2) != 1 || cold2[0].Seq != 101 || hot2[0].Seq != 103 {
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
