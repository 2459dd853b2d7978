// Snapshot and write-ahead-log codecs for controller durability
// (internal/durable): fixed-layout big-endian fields, a version byte so
// future layouts can coexist, and a CRC-32 (IEEE) trailer so torn writes
// and bit rot are detected instead of silently merged — a manifest that
// fails its checksum is refused, never half-loaded.
package wire

import (
	"encoding/binary"
	"hash/crc32"
	"slices"

	"omniwindow/internal/packet"
)

// SnapMagic ("OWSN") and SnapVersion identify checkpoint snapshots.
// Version 2 added the writer's fencing term after ThroughLSN, so a
// checkpoint durably records which term-holder cut it. Version 3 added the
// live list (a checkpoint was a manifest plus the cut files it named).
// Version 4 carried the table as columns. Version 5 is the manifest alone:
// the live list lost its cut-file names and the columns moved into the log
// (WALColumn), and the ledger entries carry their spike counts.
const (
	SnapMagic   uint32 = 0x4F57534E
	SnapVersion uint8  = 5
)

// WAL record types. Every controller-state mutation that replay must
// reproduce has a frame type; anything absent from this list is derivable
// or cosmetic (operation timings, for example, are not restored).
const (
	// WALAFRBatch carries ingested AFR records of the frame's sub-window
	// (first transmissions or retransmissions, per the Retrans flag), each
	// as its sequence number and a cell: 26 B, 58 B with summary words.
	WALAFRBatch byte = 1
	// WALTrigger carries a sub-window's announced key count.
	WALTrigger byte = 2
	// WALFinish marks a FinishSubWindow call; replay re-runs the window
	// assembly so re-emitted windows are byte-identical.
	WALFinish byte = 3
	// WALShed records AFRs dropped by admission control so restored
	// Degraded/ShedAFRs accounting matches the pre-crash state.
	WALShed byte = 4
	// WALSpike carries a latency-spike copy the controller merged in
	// software (§5), laid out as a batch of one: its packet sequence
	// number, key and attr.
	WALSpike byte = 5
	// WALColumn carries one finished sub-window's whole column in AFRs, a
	// cell per flow: it supersedes every earlier frame of that sub-window.
	WALColumn byte = 6
)

// SnapColumn is one sub-window's column of the controller table: records
// O2 folds into it, as exported a cell per flow in key order (Key, Attr,
// the summary words when HasDistinct; WALColumn's decoder sets SubWindow),
// as recovery folds it from the log the AFRs and spikes, several per flow.
type SnapColumn struct {
	SW    uint64
	Cells []packet.AFR
}

// SnapDedup is one open sub-window's arrival state.
type SnapDedup struct {
	SW        uint64
	Expected  int32
	Recovered uint32
	Shed      uint32
	Spikes    uint32
	Seen      []uint32
}

// SnapRel is one finished sub-window's final delivery accounting.
type SnapRel struct {
	SW        uint64
	Expected  int32
	Received  uint32
	Recovered uint32
	Missing   uint32
	Shed      uint32
	Spikes    uint32
}

// Snapshot is one cut of the controller state at a sub-window boundary:
// the columns of some live sub-windows plus everything else the controller
// holds. A full cut carries every live column; a delta cut only those
// finished since the previous one. Columns, Pending, Dedups and Rels are
// flat (not per-shard) and deterministically ordered by the exporter, so
// the encoding is byte-stable and restore re-routes cells by hash — a
// snapshot taken at one shard count loads correctly at another.
type Snapshot struct {
	// ThroughLSN is the WAL high-water mark the snapshot covers: replay
	// must skip frames with LSN <= ThroughLSN (they are already folded
	// in), which makes a crash between checkpoint rename and WAL
	// truncation harmless.
	ThroughLSN uint64
	// Term is the fencing term of the writer that cut the checkpoint
	// (internal/durable); 0 when fencing was never engaged.
	Term uint64
	// LastFinished is the newest sub-window whose FinishSubWindow ran
	// before the snapshot (valid when HasFinished); replayed WALFinish
	// frames at or below it are skipped.
	LastFinished uint64
	HasFinished  bool
	// Live lists every live sub-window (one whose column the controller
	// table holds) in ascending order, also those whose columns this cut
	// does not carry: restore retires every column not listed.
	Live []uint64
	// Columns holds one column per sub-window the cut carries; they are
	// not encoded (internal/durable keeps each column in the log).
	Columns []SnapColumn
	Pending []packet.AFR
	Dedups  []SnapDedup
	Rels    []SnapRel
}

// cellSize is a column cell without summary words, the smallest;
// walAFRSize is a logged AFR without them: its sequence number and a cell.
const (
	cellSize   = packet.KeyBytes + 8 + 1
	walAFRSize = 4 + cellSize
)
const snapHeaderSize = 4 + 1 + 8 + 8 + 8 + 1

// EncodeSnapshot serializes s but its columns (the manifest) into buf,
// grown as needed, and returns the result, ending in the CRC-32 trailer.
func EncodeSnapshot(buf []byte, s *Snapshot) []byte {
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint32(buf, SnapMagic)
	buf = append(buf, SnapVersion)
	buf = binary.BigEndian.AppendUint64(buf, s.ThroughLSN)
	buf = binary.BigEndian.AppendUint64(buf, s.Term)
	buf = binary.BigEndian.AppendUint64(buf, s.LastFinished)
	buf = append(buf, b2u(s.HasFinished))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Live)))
	for _, sw := range s.Live {
		buf = binary.BigEndian.AppendUint64(buf, sw)
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Pending)))
	for i := range s.Pending {
		buf = appendAFR(buf, &s.Pending[i])
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Dedups)))
	for i := range s.Dedups {
		d := &s.Dedups[i]
		buf = binary.BigEndian.AppendUint64(buf, d.SW)
		buf = binary.BigEndian.AppendUint32(buf, uint32(d.Expected))
		buf = binary.BigEndian.AppendUint32(buf, d.Recovered)
		buf = binary.BigEndian.AppendUint32(buf, d.Shed)
		buf = binary.BigEndian.AppendUint32(buf, d.Spikes)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Seen)))
		for _, s := range d.Seen {
			buf = binary.BigEndian.AppendUint32(buf, s)
		}
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Rels)))
	for i := range s.Rels {
		r := &s.Rels[i]
		buf = binary.BigEndian.AppendUint64(buf, r.SW)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Expected))
		buf = binary.BigEndian.AppendUint32(buf, r.Received)
		buf = binary.BigEndian.AppendUint32(buf, r.Recovered)
		buf = binary.BigEndian.AppendUint32(buf, r.Missing)
		buf = binary.BigEndian.AppendUint32(buf, r.Shed)
		buf = binary.BigEndian.AppendUint32(buf, r.Spikes)
	}

	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// appendCell serializes one column cell: the key, the attribute and the
// summary flag, then the summary words if it has them. A cell needs no
// sub-window (its column names it) and no sequence number.
func appendCell(buf []byte, c *packet.AFR) []byte {
	n := cellSize
	if c.HasDistinct {
		n += 32
	}
	buf = slices.Grow(buf, n)
	b := buf[len(buf) : len(buf)+n]
	c.Key.PutBytes(b)
	binary.BigEndian.PutUint64(b[packet.KeyBytes:], c.Attr)
	b[cellSize-1] = b2u(c.HasDistinct)
	if c.HasDistinct {
		for w, v := range c.Distinct {
			binary.BigEndian.PutUint64(b[cellSize+8*w:], v)
		}
	}
	return buf[:len(buf)+n]
}

// snapReader cursors over a checksum-verified snapshot body. Every read
// re-checks the remaining length, so a decoder that survives the CRC (a
// deliberately patched checksum, as the fuzz target produces) still fails
// cleanly with ErrTruncated instead of panicking or over-allocating.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.data)-r.off < n {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *snapReader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *snapReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// cell reads one appendCell cell of sub-window sw.
func (r *snapReader) cell(sw uint64) packet.AFR {
	var kb [packet.KeyBytes]byte
	if r.need(packet.KeyBytes) {
		copy(kb[:], r.data[r.off:])
		r.off += packet.KeyBytes
	}
	c := packet.AFR{SubWindow: sw, Key: packet.KeyFromBytes(kb), Attr: r.u64()}
	if c.HasDistinct = r.u8() != 0; c.HasDistinct {
		for w := range c.Distinct {
			c.Distinct[w] = r.u64()
		}
	}
	return c
}

// count reads a length prefix and rejects values whose minimal encoding
// cannot fit in the remaining bytes (allocation-bomb guard).
func (r *snapReader) count(minPer int) int {
	n := int(r.u32())
	if r.err == nil && n*minPer > len(r.data)-r.off {
		r.err = ErrTruncated
		return 0
	}
	return n
}

// VerifySnapshot checks a snapshot's magic, version and CRC-32 trailer
// without decoding it (no allocation) — the checkpoint's one integrity
// check, run by DecodeSnapshot and by the boundary scrubber alike.
func VerifySnapshot(data []byte) error {
	if len(data) < snapHeaderSize+sumSize {
		return ErrTruncated
	}
	return checkSeal(data, SnapMagic, SnapVersion)
}

// checkSeal is the preamble-and-trailer check every sealed durable record
// shares (snapshot, segment header, term record): a 4-byte magic, a
// version byte, and a CRC-32 trailer over everything before it. rec is the
// whole record; the caller has already rejected a short one.
func checkSeal(rec []byte, magic uint32, version uint8) error {
	body := rec[:len(rec)-sumSize]
	switch {
	case binary.BigEndian.Uint32(body) != magic:
		return ErrBadMagic
	case body[4] != version:
		return ErrBadVersion
	case binary.BigEndian.Uint32(rec[len(body):]) != crc32.ChecksumIEEE(body):
		return ErrChecksum
	}
	return nil
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot, verifying
// it (VerifySnapshot) first.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if err := VerifySnapshot(data); err != nil {
		return nil, err
	}
	body := data[:len(data)-sumSize]
	r := &snapReader{data: body, off: 5}
	s := &Snapshot{
		ThroughLSN:   r.u64(),
		Term:         r.u64(),
		LastFinished: r.u64(),
		HasFinished:  r.u8() != 0,
	}

	if n := r.count(8); n > 0 {
		s.Live = make([]uint64, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			s.Live = append(s.Live, r.u64())
		}
	}

	if n := r.count(afrSize); n > 0 {
		s.Pending = make([]packet.AFR, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var rec packet.AFR
			if r.need(afrSize) {
				decodeAFR(r.data[r.off:], &rec)
				r.off += afrSize
			}
			s.Pending = append(s.Pending, rec)
		}
	}

	if n := r.count(8 + 4 + 4 + 4 + 4 + 4); n > 0 {
		s.Dedups = make([]SnapDedup, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var d SnapDedup
			d.SW = r.u64()
			d.Expected = int32(r.u32())
			d.Recovered = r.u32()
			d.Shed = r.u32()
			d.Spikes = r.u32()
			if ns := r.count(4); ns > 0 {
				d.Seen = make([]uint32, 0, ns)
				for j := 0; j < ns && r.err == nil; j++ {
					d.Seen = append(d.Seen, r.u32())
				}
			}
			s.Dedups = append(s.Dedups, d)
		}
	}

	if n := r.count(8 + 6*4); n > 0 {
		s.Rels = make([]SnapRel, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var rel SnapRel
			rel.SW = r.u64()
			rel.Expected = int32(r.u32())
			rel.Received = r.u32()
			rel.Recovered = r.u32()
			rel.Missing = r.u32()
			rel.Shed = r.u32()
			rel.Spikes = r.u32()
			s.Rels = append(s.Rels, rel)
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, ErrTruncated
	}
	return s, nil
}

// WALRecord is one write-ahead-log frame's payload. Frames are
// length-prefixed and CRC-trailed, so replay detects the torn tail a crash
// mid-append leaves behind and stops cleanly there.
type WALRecord struct {
	Type byte
	// LSN is the log sequence number, issued in append order; replay skips
	// the frames a checkpoint covers by LSN, and an LSN hole is lost data.
	LSN uint64
	// Term is the fencing term the frame was written under (internal/
	// durable); a legitimate log is non-decreasing in Term along LSN
	// order, and the partition chaos suite audits exactly that.
	Term      uint64
	SubWindow uint64
	// KeyCount is the trigger announcement (WALTrigger).
	KeyCount uint32
	// Count is the shed record count (WALShed).
	Count uint32
	// Retrans marks a batch that arrived via the NACK/retransmit path,
	// so replayed delivery accounting matches the original.
	Retrans bool
	// AFRs is the batch (WALAFRBatch), the spike copy (WALSpike) or the
	// column's cells (WALColumn). Records are logged without their
	// sub-window and app: decoded ones carry SubWindow and app 0 (a
	// durable deployment runs one app).
	AFRs []packet.AFR
}

// walHeaderSize is the fixed frame prefix: payload length (4).
const walHeaderSize = 4

// walFixedPayload is the fixed leading payload every frame type shares:
// type(1) + lsn(8) + term(8) + subwindow(8).
const walFixedPayload = 1 + 8 + 8 + 8

// AppendWALRecord appends one framed record to buf and returns it.
func AppendWALRecord(buf []byte, rec *WALRecord) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0) // patched below
	payload := len(buf)
	buf = append(buf, rec.Type)
	buf = binary.BigEndian.AppendUint64(buf, rec.LSN)
	buf = binary.BigEndian.AppendUint64(buf, rec.Term)
	buf = binary.BigEndian.AppendUint64(buf, rec.SubWindow)
	switch rec.Type {
	case WALAFRBatch, WALSpike:
		buf = append(buf, b2u(rec.Retrans))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.AFRs)))
		for i := range rec.AFRs {
			buf = binary.BigEndian.AppendUint32(buf, rec.AFRs[i].Seq)
			buf = appendCell(buf, &rec.AFRs[i])
		}
	case WALTrigger:
		buf = binary.BigEndian.AppendUint32(buf, rec.KeyCount)
	case WALShed:
		buf = binary.BigEndian.AppendUint32(buf, rec.Count)
	case WALColumn:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.AFRs)))
		for i := range rec.AFRs {
			buf = appendCell(buf, &rec.AFRs[i])
		}
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-payload))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[payload:]))
}

// DecodeWALRecord parses the first frame of data, returning the record and
// the bytes consumed. ErrTruncated means the frame is incomplete (a torn
// tail — the caller stops replay there); ErrChecksum means the frame is
// complete but corrupt. Both come from VerifyWALFrame.
func DecodeWALRecord(data []byte) (*WALRecord, int, error) {
	total, err := VerifyWALFrame(data)
	if err != nil {
		return nil, 0, err
	}
	payload := data[walHeaderSize : total-sumSize]
	rec := &WALRecord{
		Type:      payload[0],
		LSN:       binary.BigEndian.Uint64(payload[1:]),
		Term:      binary.BigEndian.Uint64(payload[9:]),
		SubWindow: binary.BigEndian.Uint64(payload[17:]),
	}
	rest := payload[walFixedPayload:]
	switch rec.Type {
	case WALAFRBatch, WALSpike:
		r := &snapReader{data: rest}
		rec.Retrans = r.u8() != 0
		if n := r.count(walAFRSize); n > 0 {
			rec.AFRs = make([]packet.AFR, n)
			for i := range rec.AFRs {
				seq := r.u32()
				rec.AFRs[i] = r.cell(rec.SubWindow)
				rec.AFRs[i].Seq = seq
			}
		}
		if r.err != nil || r.off != len(rest) {
			return nil, 0, ErrTruncated
		}
	case WALTrigger:
		if len(rest) != 4 {
			return nil, 0, ErrTruncated
		}
		rec.KeyCount = binary.BigEndian.Uint32(rest)
	case WALFinish:
		if len(rest) != 0 {
			return nil, 0, ErrTruncated
		}
	case WALShed:
		if len(rest) != 4 {
			return nil, 0, ErrTruncated
		}
		rec.Count = binary.BigEndian.Uint32(rest)
	case WALColumn:
		r := &snapReader{data: rest}
		rec.AFRs = make([]packet.AFR, 0, r.count(cellSize))
		for i := cap(rec.AFRs); i > 0 && r.err == nil; i-- {
			rec.AFRs = append(rec.AFRs, r.cell(rec.SubWindow))
		}
		if r.err != nil || r.off != len(rest) {
			return nil, 0, ErrTruncated
		}
	default:
		return nil, 0, ErrBadVersion
	}
	return rec, total, nil
}
