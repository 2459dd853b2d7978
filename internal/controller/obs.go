package controller

import "omniwindow/internal/obs"

// Obs bundles the controller's runtime instrumentation handles. The zero
// value (all nil) is the disabled state: every use is a nil-check no-op,
// so the merge hot path pays nothing when observability is off (see the
// zero-allocation tests). Build an enabled set with Instrument.
type Obs struct {
	// Ingested counts AFR records admitted on first arrival (packet and
	// RDMA paths both).
	Ingested *obs.Counter
	// Duplicates counts records suppressed by per-sub-window sequence
	// dedup (retransmit overlap, link-level duplication).
	Duplicates *obs.Counter
	// Recovered counts records whose first arrival came via the
	// NACK/retransmit path.
	Recovered *obs.Counter
	// Spikes counts latency-spike copies merged by the software path.
	Spikes *obs.Counter
	// Shed counts AFR records dropped unread and charged to their
	// sub-windows via NoteShed.
	Shed *obs.Counter
	// Windows counts complete windows emitted; IncompleteWindows and
	// DegradedWindows split out the damaged ones.
	Windows           *obs.Counter
	IncompleteWindows *obs.Counter
	DegradedWindows   *obs.Counter

	// OpInsert..OpEvict are the per-sub-window O2–O5 latency
	// distributions (summed CPU time across shard workers, matching
	// OpTimes); Finish is the whole assembly.
	OpInsert  *obs.Histogram
	OpMerge   *obs.Histogram
	OpProcess *obs.Histogram
	OpEvict   *obs.Histogram
	Finish    *obs.Histogram

	// Ring receives the window-lifecycle trace events the controller
	// owns: announced, finished, window emitted.
	Ring *obs.Ring
}

// Instrument registers the controller metric family on reg and returns
// the enabled handle set.
func Instrument(reg *obs.Registry) Obs {
	return Obs{
		Ingested:          reg.Counter("omniwindow_controller_afrs_total", "AFR records admitted into the key-value table (first arrivals)"),
		Duplicates:        reg.Counter("omniwindow_controller_duplicates_total", "AFR records suppressed by sequence dedup"),
		Recovered:         reg.Counter("omniwindow_controller_recovered_total", "AFR records whose first arrival was a retransmission"),
		Spikes:            reg.Counter("omniwindow_controller_spikes_total", "latency-spike copies merged through the software path"),
		Shed:              reg.Counter("omniwindow_controller_shed_total", "AFR records dropped by admission control, charged via NoteShed"),
		Windows:           reg.Counter("omniwindow_controller_windows_total", "complete windows emitted"),
		IncompleteWindows: reg.Counter("omniwindow_controller_windows_incomplete_total", "windows emitted with unrecovered AFR gaps"),
		DegradedWindows:   reg.Counter("omniwindow_controller_windows_degraded_total", "windows emitted damaged by load shedding"),
		OpInsert:          reg.Histogram("omniwindow_controller_op_insert_seconds", "O2 key-value insert time per sub-window (CPU, summed across shards)", nil),
		OpMerge:           reg.Histogram("omniwindow_controller_op_merge_seconds", "O3 statistics merge time per sub-window", nil),
		OpProcess:         reg.Histogram("omniwindow_controller_op_process_seconds", "O4 query evaluation time per completed window", nil),
		OpEvict:           reg.Histogram("omniwindow_controller_op_evict_seconds", "O5 eviction time per retirement", nil),
		Finish:            reg.Histogram("omniwindow_controller_finish_seconds", "FinishSubWindow wall time per sub-window", nil),
		Ring:              reg.Ring(0),
	}
}

// SetObs installs (or, with the zero value, removes) the controller's
// instrumentation. Call before traffic: the handles are read without
// synchronization by concurrent ingest.
func (c *Controller) SetObs(o Obs) { c.obs = o }
