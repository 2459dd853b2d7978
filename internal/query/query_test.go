package query

import (
	"math/rand"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
)

func syn(src, dst uint32, sport, dport uint16) *packet.Packet {
	return &packet.Packet{
		Key:      packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, Proto: packet.ProtoTCP},
		Size:     64,
		TCPFlags: packet.FlagSYN,
	}
}

func TestStateFrequencyCounts(t *testing.T) {
	q := SynFloodQuery(Thresholds{SynFlood: 5})
	s := NewState(q, 1024, 0, 1)
	for i := 0; i < 7; i++ {
		s.Update(syn(uint32(i), 99, uint16(1000+i), 443))
	}
	victim := packet.FlowKey{DstIP: 99, Proto: packet.ProtoTCP}
	if got := s.Query(victim).Value; got != 7 {
		t.Fatalf("victim SYN count = %d want 7", got)
	}
	// Non-SYN packets are filtered.
	ack := syn(1, 99, 1000, 443)
	ack.TCPFlags = packet.FlagACK
	s.Update(ack)
	if got := s.Query(victim).Value; got != 7 {
		t.Fatalf("filtered packet counted: %d", got)
	}
}

func TestStateDistinctDedup(t *testing.T) {
	q := DDoSQuery(Thresholds{})
	s := NewState(q, 1024, 1<<14, 2)
	// 50 distinct sources, each sending 10 packets: distinct count must
	// be ~50, not 500.
	for src := 0; src < 50; src++ {
		for j := 0; j < 10; j++ {
			p := syn(uint32(1000+src), 7, uint16(2000+j), 80)
			s.Update(p)
		}
	}
	victim := packet.FlowKey{DstIP: 7, Proto: packet.ProtoTCP}
	got := s.Query(victim)
	if got.Value != 50 {
		t.Fatalf("distinct sources = %d want 50", got.Value)
	}
	if got.Summary == (packet.Summary{}) {
		t.Fatal("distinct query must carry a summary")
	}
}

func TestStateCollisionsShareSlot(t *testing.T) {
	// Sonata's error model: with one slot, every key shares the counter.
	q := SynFloodQuery(Thresholds{})
	s := NewState(q, 1, 0, 3)
	s.Update(syn(1, 50, 1, 443))
	s.Update(syn(2, 60, 2, 443))
	if got := s.Query(packet.FlowKey{DstIP: 50, Proto: packet.ProtoTCP}).Value; got != 2 {
		t.Fatalf("collision semantics broken: %d", got)
	}
}

func TestStateResetSlots(t *testing.T) {
	q := DDoSQuery(Thresholds{})
	s := NewState(q, 16, 1<<10, 4)
	for src := 0; src < 30; src++ {
		s.Update(syn(uint32(src), 7, 1000, 80))
	}
	for i := 0; i < s.Slots(); i++ {
		s.ResetSlot(i)
	}
	victim := packet.FlowKey{DstIP: 7, Proto: packet.ProtoTCP}
	if got := s.Query(victim); got.Value != 0 || got.Summary != (packet.Summary{}) {
		t.Fatalf("reset left state: %+v", got)
	}
	// Dedup filter must also be clear: the same source counts again.
	s.Update(syn(1, 7, 1000, 80))
	if got := s.Query(victim).Value; got != 1 {
		t.Fatalf("dedup not cleared: %d", got)
	}
}

func TestStateMemoryAccounting(t *testing.T) {
	freq := NewState(SynFloodQuery(Thresholds{}), 1024, 0, 5)
	dist := NewState(DDoSQuery(Thresholds{}), 1024, 1<<13, 5)
	if freq.MemoryBytes() != 1024*8 {
		t.Fatalf("freq memory = %d", freq.MemoryBytes())
	}
	if dist.MemoryBytes() <= freq.MemoryBytes() {
		t.Fatal("distinct state must cost more (summaries + dedup filter)")
	}
}

func TestStateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewState(SynFloodQuery(Thresholds{}), 0, 0, 1)
}

func TestExactMatchesStateWhenNoCollisions(t *testing.T) {
	q := SynFloodQuery(Thresholds{})
	s := NewState(q, 1<<16, 0, 6)
	e := NewExact(q)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := syn(uint32(rng.Intn(20)), uint32(rng.Intn(5)), uint16(rng.Intn(5000)), 443)
		s.Update(p)
		e.Update(p)
	}
	for k, v := range e.Counts() {
		if got := s.Query(k).Value; got != v {
			t.Fatalf("state diverged from exact for %v: %d vs %d", k, got, v)
		}
	}
}

func TestExactDistinct(t *testing.T) {
	q := DDoSQuery(Thresholds{DDoSSources: 3})
	e := NewExact(q)
	for src := 0; src < 5; src++ {
		for j := 0; j < 4; j++ {
			e.Update(syn(uint32(src), 9, uint16(j), 80))
		}
	}
	victim := packet.FlowKey{DstIP: 9, Proto: packet.ProtoTCP}
	if e.Counts()[victim] != 5 {
		t.Fatalf("exact distinct = %d", e.Counts()[victim])
	}
	det := e.Detect()
	if !det[victim] || len(det) != 1 {
		t.Fatalf("detect = %v", det)
	}
	if len(e.DistinctSets()[victim]) != 5 {
		t.Fatal("distinct set size wrong")
	}
	e.Reset()
	if len(e.Counts()) != 0 {
		t.Fatal("reset kept counts")
	}
}

func TestQueriesObserveExpectedPackets(t *testing.T) {
	th := DefaultThresholds()

	// Q2 only watches port 22.
	q2 := SSHBruteQuery(th)
	if q2.Observes(syn(1, 2, 3, 22)) != true || q2.Observes(syn(1, 2, 3, 80)) {
		t.Fatal("Q2 filter wrong")
	}

	// Q5 rejects SYN+ACK.
	q5 := SynFloodQuery(th)
	synack := syn(1, 2, 3, 443)
	synack.TCPFlags = packet.FlagSYN | packet.FlagACK
	if q5.Observes(synack) {
		t.Fatal("Q5 must ignore SYN-ACK")
	}

	// Q6 needs FIN.
	q6 := CompletedFlowsQuery(th)
	fin := syn(1, 2, 3, 80)
	fin.TCPFlags = packet.FlagFIN | packet.FlagACK
	if !q6.Observes(fin) || q6.Observes(syn(1, 2, 3, 80)) {
		t.Fatal("Q6 filter wrong")
	}

	// Q7 wants small packets to port 80.
	q7 := SlowlorisQuery(th)
	small := syn(1, 2, 3, 80)
	small.TCPFlags = packet.FlagACK
	small.Size = 70
	big := syn(1, 2, 3, 80)
	big.Size = 1400
	if !q7.Observes(small) || q7.Observes(big) {
		t.Fatal("Q7 filter wrong")
	}
}

func TestAllReturnsSevenDistinctQueries(t *testing.T) {
	qs := All(Thresholds{})
	if len(qs) != 7 {
		t.Fatalf("queries = %d", len(qs))
	}
	names := map[string]bool{}
	for _, q := range qs {
		if names[q.Name] {
			t.Fatalf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		if q.Threshold == 0 {
			t.Fatalf("%s has zero threshold", q.Name)
		}
		if q.Kind == afr.Distinction && q.Distinct == nil {
			t.Fatalf("%s is distinction without element extractor", q.Name)
		}
	}
}

func TestDefaultThresholdsFill(t *testing.T) {
	var th Thresholds
	th.defaults()
	if th != DefaultThresholds() {
		t.Fatalf("defaults not applied: %+v", th)
	}
	custom := Thresholds{NewConns: 5}
	custom.defaults()
	if custom.NewConns != 5 || custom.SynFlood != DefaultThresholds().SynFlood {
		t.Fatal("selective override broken")
	}
}
