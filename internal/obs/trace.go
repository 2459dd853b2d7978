package obs

import (
	"sync"
	"time"
)

// Stage is one step of a sub-window's life, or a deployment-level event
// that reshapes window coverage. The happy path of one sub-window reads
// announced → collected → finished → window emitted; the unhappy paths
// interleave recovered/shed/failover events.
type Stage uint8

const (
	// StageAnnounced: the trigger packet announced a terminated
	// sub-window to the controller. Value = announced key count.
	StageAnnounced Stage = iota
	// StageCollected: the C&R round drained the sub-window's region.
	// Value = AFR records collected; Shard = the memory region index.
	StageCollected
	// StageRecovered: the NACK/retransmit loop repaired losses.
	// Value = recovery rounds run.
	StageRecovered
	// StageShed: admission control dropped records under overload.
	// Value = records shed.
	StageShed
	// StageFinished: the controller ran O2–O5 window assembly for the
	// sub-window. Value = total assembly CPU time in nanoseconds;
	// Shard = shard count that ran.
	StageFinished
	// StageWindowEmitted: a complete window ended at this sub-window.
	// Value = the window's first sub-window (Start).
	StageWindowEmitted
	// StageCheckpoint: controller state was checkpointed at this
	// boundary. Value = checkpoint duration in nanoseconds, export +
	// commit: the controller's cut and the store's write of it.
	StageCheckpoint
	// StageFailover: the hot standby promoted mid-collection.
	StageFailover
	// StageReadmit: a demoted former primary was re-admitted as the new
	// hot standby.
	StageReadmit
	// StageRDMAFallback: RDMA-path records rerouted to the packet C&R
	// path mid-sub-window (QP down or replay budget exhausted).
	// Value = records handed off.
	StageRDMAFallback
	// StageQPRecovered: the RDMA queue pair recovered from Error at this
	// boundary (AddressMAT rebuilt, replay window re-armed).
	StageQPRecovered
	// StageDurabilityDegraded: the deployment's durability mode flipped
	// at this boundary. Value = 1 entering degraded (WAL/checkpoint
	// writes suspended and counted as gaps), 0 on heal (fresh checkpoint
	// + new WAL generation).
	StageDurabilityDegraded
	// StageFenced: a partitioned former primary's durable writes were
	// rejected under a stale fencing term and it self-demoted.
	// Value = fenced write attempts observed at this boundary.
	StageFenced
)

var stageNames = [...]string{
	StageAnnounced:          "announced",
	StageCollected:          "collected",
	StageRecovered:          "recovered",
	StageShed:               "shed",
	StageFinished:           "finished",
	StageWindowEmitted:      "window_emitted",
	StageCheckpoint:         "checkpoint",
	StageFailover:           "failover",
	StageReadmit:            "readmit",
	StageRDMAFallback:       "rdma_fallback",
	StageQPRecovered:        "qp_recovered",
	StageDurabilityDegraded: "durability_degraded",
	StageFenced:             "fenced",
}

// String names the stage as it appears in JSON dumps and owtop.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalJSON renders the stage as its string name.
func (s Stage) MarshalJSON() ([]byte, error) {
	name := s.String()
	b := make([]byte, 0, len(name)+2)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"'), nil
}

// Event is one trace-ring entry.
type Event struct {
	// Seq is the event's position in the recording order (monotonic
	// across the ring's whole life, not just the retained tail).
	Seq uint64 `json:"seq"`
	// At is the wall-clock timestamp in Unix nanoseconds.
	At int64 `json:"at_unix_ns"`
	// Stage is the lifecycle step.
	Stage Stage `json:"stage"`
	// SubWindow is the sub-window the event concerns.
	SubWindow uint64 `json:"sub_window"`
	// Shard attributes the event to a controller shard count or memory
	// region, depending on the stage; -1 when not applicable.
	Shard int `json:"shard"`
	// Value is the stage-specific magnitude (see the Stage constants).
	Value int64 `json:"value"`
}

// Ring is a fixed-capacity window-lifecycle trace: Record overwrites the
// oldest event once full, so the ring always holds the most recent tail
// at a bounded, pre-allocated memory cost. Record never allocates; a nil
// *Ring ignores records and snapshots empty.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

// NewRing builds a ring retaining the last capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends one event, stamping its sequence number and wall-clock
// time. Safe for concurrent callers; never allocates.
func (r *Ring) Record(stage Stage, subWindow uint64, shard int, value int64) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = Event{
		Seq: r.next, At: now, Stage: stage, SubWindow: subWindow, Shard: shard, Value: value,
	}
	r.next++
	r.mu.Unlock()
}

// Total reports how many events were ever recorded (retained or not).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot copies the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Event, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, r.buf[s%cap64])
	}
	return out
}
