package packet

import "fmt"

// TCP flag bits carried by simulated packets.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// OWFlag is the collection/reset flag of the OmniWindow custom header
// (paper §8: "the fields include the number of subwindow, collection/reset
// flag, and injected flowkey").
type OWFlag uint8

// OmniWindow header flag values. The data plane dispatches on these to tell
// normal traffic from the special packets that drive C&R.
const (
	// OWNone marks ordinary traffic.
	OWNone OWFlag = iota
	// OWCollection marks a controller-injected collection packet that the
	// switch recirculates to enumerate flow keys (Algorithm 2).
	OWCollection
	// OWReset marks a clear packet: a collection packet converted after
	// enumeration finishes, reused to reset sub-window state (§4.3).
	OWReset
	// OWTrigger marks the cloned packet that signalled sub-window
	// termination, sent to the controller so it can start AFR generation
	// after the out-of-order grace period (§4.2, Figure 3).
	OWTrigger
	// OWInjectKey marks a controller packet carrying a flow key that was
	// spilled to the controller during flowkey tracking; the switch
	// extracts the key, queries it, and answers with an AFR.
	OWInjectKey
	// OWAFR marks a switch-to-controller packet carrying generated AFRs.
	OWAFR
	// OWSpill marks a cloned packet carrying a flow key that did not fit
	// in the data-plane flowkey array (Algorithm 1 lines 5-6).
	OWSpill
	// OWLatencySpike marks the copy of a packet whose embedded sub-window
	// is older than every preserved sub-window; forwarded to the
	// controller for software processing (§5, out-of-order packets).
	OWLatencySpike
	// OWRetransmit marks a switch-to-controller packet carrying AFRs
	// re-queried in answer to a NACK. It is ingested exactly like OWAFR
	// (dedup by sequence) but counted separately, so delivery accounting
	// can tell first deliveries from recoveries.
	OWRetransmit
)

// String implements fmt.Stringer for debugging.
func (f OWFlag) String() string {
	switch f {
	case OWNone:
		return "none"
	case OWCollection:
		return "collection"
	case OWReset:
		return "reset"
	case OWTrigger:
		return "trigger"
	case OWInjectKey:
		return "inject-key"
	case OWAFR:
		return "afr"
	case OWSpill:
		return "spill"
	case OWLatencySpike:
		return "latency-spike"
	case OWRetransmit:
		return "retransmit"
	default:
		return fmt.Sprintf("OWFlag(%d)", uint8(f))
	}
}

// AFR is an application-derived flow record (paper §4.1): the flow key plus
// the flow attributes queried from the sub-window state. Attr carries the
// application-defined attribute (packet count, byte count, distinct count,
// max, ...). SubWindow records which sub-window the value summarizes and Seq
// is the per-sub-window sequence ID used for loss recovery (§8, reliability).
//
// The record is 40 bytes (App fits in the padding after Seq) and every
// stage of the collection path copies it by value. A Distinction app's
// summary does not ride in it: it travels in a Summary slice parallel to
// the records (OWHeader.Summaries), empty for every app that fills none.
type AFR struct {
	Key       FlowKey
	Attr      uint64
	SubWindow uint64
	Seq       uint32
	// App identifies which co-deployed telemetry application the record
	// belongs to when one switch hosts several (they share flowkey
	// tracking and the window mechanism; each app has its own state and
	// its own controller table).
	App uint8
}

// Summary is the distinct-count summary a Distinction app attaches to an
// AFR: four words the controller merges across sub-windows with a
// lossless OR and counts only after (§4.2), instead of summing
// per-sub-window counts. The zero Summary means "no summary": zero is the
// OR's identity, and a key the app updated has a non-empty one.
//
// Summaries travel in a slice parallel to their records. The slice is
// empty while no record carries a summary (the frequency case); otherwise
// it holds one Summary per record, zero for a record without one.
type Summary [4]uint64

// AppendSummaries extends dst, the summary slice parallel to a record
// slice that held have records, by the n records being appended with
// summaries src (empty: none), keeping the parallel form: dst stays empty
// while nothing carries a summary, and is padded with zeros to have the
// first time something does.
func AppendSummaries(dst []Summary, have int, src []Summary, n int) []Summary {
	switch {
	case len(src) == 0 && len(dst) == 0:
		return dst
	case len(src) == 0:
		return append(dst, make([]Summary, n)...)
	case len(dst) < have:
		dst = append(dst, make([]Summary, have-len(dst))...)
	}
	return append(dst, src...)
}

// AppendSummary is AppendSummaries for one record, whose summary is s.
func AppendSummary(dst []Summary, have int, s Summary) []Summary {
	if s == (Summary{}) && len(dst) == 0 {
		return dst
	}
	if len(dst) < have {
		dst = append(dst, make([]Summary, have-len(dst))...)
	}
	return append(dst, s)
}

// SummarySlice is summ[i:j:j], the summaries of records i to j clipped to
// their own capacity, or nil when summ is empty (no record carries one).
func SummarySlice(summ []Summary, i, j int) []Summary {
	if len(summ) == 0 {
		return nil
	}
	return summ[i:j:j]
}

// SummaryAt is record i's summary in summ, the slice parallel to its
// records: zero when summ is empty.
func SummaryAt(summ []Summary, i int) Summary {
	if len(summ) == 0 {
		return Summary{}
	}
	return summ[i]
}

// OWHeader is the OmniWindow custom header placed between the Ethernet and
// IP headers (paper §8). HasSubWindow distinguishes "no stamp yet" from
// sub-window 0 so first-hop stamping is well defined.
type OWHeader struct {
	// The fields are ordered by alignment, widest first, so the header
	// packs into 96 bytes and a Packet into 136.
	SubWindow uint64
	// UserSignal is the application-embedded window boundary, e.g. the
	// DML training-iteration number of Exp#3 (monotonically increasing).
	UserSignal uint64
	// AFRs are the records appended by AFR generation. A real switch
	// appends them to the header bytes; the simulation carries them
	// in-struct.
	AFRs []AFR
	// Summaries are the AFRs' distinct-count summaries, parallel to AFRs,
	// or empty when none carries one (see Summary).
	Summaries []Summary
	// Key is the injected flow key of OWInjectKey packets and the queried
	// key echoed in OWAFR packets.
	Key FlowKey
	// Index is the enumeration index a collection packet carries between
	// recirculation passes (md.index of Algorithm 2).
	Index uint32
	// KeyCount is carried by OWTrigger packets: the number of flow keys
	// the switch tracked in the terminated sub-window, so the controller
	// can detect AFR losses (§8, reliability of AFRs).
	KeyCount     uint32
	Flag         OWFlag
	HasSubWindow bool
	// HasUserSignal reports whether UserSignal is meaningful.
	HasUserSignal bool
}

// Packet is a simulated packet. Timestamps are virtual nanoseconds from the
// simulation clock, not wall time.
type Packet struct {
	Key      FlowKey
	Size     uint32 // total bytes on the wire
	TCPFlags uint8
	Seq      uint32 // identifies the packet for loss detection (LossRadar)
	Time     int64  // virtual ns at which the packet enters the network
	OW       OWHeader
}

// IsSpecial reports whether the packet is an OmniWindow control packet
// rather than ordinary traffic. The switch gateway dispatches on this.
func (p *Packet) IsSpecial() bool { return p.OW.Flag != OWNone }

// HasFlags reports whether all the given TCP flag bits are set.
func (p *Packet) HasFlags(mask uint8) bool { return p.TCPFlags&mask == mask }

// Clone returns a copy of the packet with independent AFR and summary
// slices, which models the switch clone engine (clones must not alias the
// original's header data).
func (p *Packet) Clone() *Packet {
	q := *p
	if len(p.OW.AFRs) > 0 {
		q.OW.AFRs = append([]AFR(nil), p.OW.AFRs...)
	}
	if len(p.OW.Summaries) > 0 {
		q.OW.Summaries = append([]Summary(nil), p.OW.Summaries...)
	}
	return &q
}
