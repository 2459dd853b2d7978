// Package query implements a Sonata-style query-driven telemetry engine
// (Gupta et al., SIGCOMM'18): each query is a filter / map / distinct /
// reduce pipeline written directly as a Query value over data-plane state.
// Like Sonata's switch operators, the data-plane state is a hash-indexed
// array with no collision handling — colliding keys share a counter, which
// is exactly the residual error the paper observes between OmniWindow and
// the ideal windows in Exp#1 ("the stateful operators of Sonata do not
// handle hash conflicts, which cannot be avoided by OmniWindow").
//
// The package also provides an exact reference executor used to compute
// the ITW/ISW ground truth.
package query

import (
	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
)

// Query is a compiled telemetry query.
type Query struct {
	// Name identifies the query (Q1..Q7 in the evaluation).
	Name string
	// Filter selects the packets the query observes; nil observes all.
	Filter func(*packet.Packet) bool
	// Key maps a packet to the aggregation key (reduce-by-key).
	Key func(*packet.Packet) packet.FlowKey
	// Distinct, when non-nil, maps a packet to the element whose distinct
	// count is aggregated per key (Sonata's distinct-then-reduce shape).
	// When nil, the query counts packets per key.
	Distinct func(*packet.Packet) uint64
	// Kind is the merge pattern of the aggregated statistic.
	Kind afr.Kind
	// Threshold is the detection threshold over the merged window value.
	Threshold uint64
}

// Observes reports whether the query's filter selects the packet.
func (q *Query) Observes(p *packet.Packet) bool {
	return q.Filter == nil || q.Filter(p)
}
