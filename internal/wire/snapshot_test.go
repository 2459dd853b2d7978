package wire

import (
	"reflect"
	"testing"

	"omniwindow/internal/packet"
)

func snapKey(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstIP: 7, SrcPort: uint16(i), DstPort: 53, Proto: 17}
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		ThroughLSN:   42,
		LastFinished: 3,
		HasFinished:  true,
		Live:         []uint64{0, 1},
		Pending: []packet.AFR{
			{Key: snapKey(3), Attr: 11, SubWindow: 4, Seq: 0},
			{Key: snapKey(4), Attr: 13, SubWindow: 4, Seq: 1, HasDistinct: true, Distinct: [4]uint64{9, 0, 0, 1}},
		},
		Dedups: []SnapDedup{
			{SW: 4, Expected: 5, Recovered: 1, Shed: 2, Spikes: 3, Seen: []uint32{0, 1, 3}},
			{SW: 5, Expected: -1},
		},
		Rels: []SnapRel{
			{SW: 3, Expected: 10, Received: 10, Recovered: 2, Missing: 0, Shed: 1, Spikes: 4},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	buf := EncodeSnapshot(nil, s)
	got, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", s, got)
	}
	// Deterministic: same snapshot, same bytes.
	if string(buf) != string(EncodeSnapshot(nil, sampleSnapshot())) {
		t.Fatal("snapshot encoding is not byte-stable")
	}
	// The columns a cut carries are not the manifest's: they are left out.
	withCols := sampleSnapshot()
	withCols.Columns = []SnapColumn{{SW: 1, Cells: []packet.AFR{{Key: snapKey(1), Attr: 7, SubWindow: 1}}}}
	if string(buf) != string(EncodeSnapshot(nil, withCols)) {
		t.Fatal("a snapshot's columns reached its encoding")
	}
}

// A snapshot's column is logged as one column record (WALColumn), whose
// cell costs its key, its attribute and a flag, plus the four summary
// words only when it has them: no per-cell sub-window, no per-flow count.
// Decoded cells are the records O2 folds, each stamped with its column.
func TestSnapshotCellLayout(t *testing.T) {
	col := func(cells ...packet.AFR) int {
		return len(AppendWALRecord(nil, &WALRecord{Type: WALColumn, SubWindow: 6, AFRs: cells}))
	}
	empty := col()
	if got := col(packet.AFR{Key: snapKey(1), Attr: 2}) - empty; got != cellSize {
		t.Fatalf("a plain cell costs %d bytes, want %d", got, cellSize)
	}
	if got := col(packet.AFR{Key: snapKey(1), HasDistinct: true}) - empty; got != cellSize+32 {
		t.Fatalf("a summary cell costs %d bytes, want %d", got, cellSize+32)
	}
	rec, _, err := DecodeWALRecord(AppendWALRecord(nil, &WALRecord{Type: WALColumn, SubWindow: 6,
		AFRs: []packet.AFR{{Key: snapKey(1), Attr: 2, SubWindow: 99, Seq: 4}}}))
	if err != nil {
		t.Fatal(err)
	}
	if want := (packet.AFR{Key: snapKey(1), Attr: 2, SubWindow: 6}); rec.AFRs[0] != want {
		t.Fatalf("decoded cell %+v, want %+v", rec.AFRs[0], want)
	}
}

// A batch or spike frame logs each AFR as its sequence number and a cell:
// 26 B, plus the four summary words only when it has them. The frame names
// the sub-window once, so decoded records carry the frame's, not their own.
func TestWALBatchFrameBytes(t *testing.T) {
	for _, typ := range []byte{WALAFRBatch, WALSpike} {
		frame := func(afrs ...packet.AFR) []byte {
			return AppendWALRecord(nil, &WALRecord{Type: typ, LSN: 3, SubWindow: 6, AFRs: afrs})
		}
		empty := len(frame())
		if want := walHeaderSize + walFixedPayload + 1 + 4 + sumSize; empty != want {
			t.Fatalf("type %d: an empty frame costs %d bytes, want %d", typ, empty, want)
		}
		plain := packet.AFR{Key: snapKey(1), Attr: 2, SubWindow: 99, Seq: 4, App: 1}
		summary := packet.AFR{Key: snapKey(2), Attr: 5, SubWindow: 6, Seq: 1 << 31,
			Distinct: [4]uint64{1, 2, 3, 1 << 63}, HasDistinct: true}
		if got := len(frame(plain)) - empty; got != 26 {
			t.Fatalf("type %d: a plain AFR costs %d bytes, want 26", typ, got)
		}
		if got := len(frame(summary)) - empty; got != 26+32 {
			t.Fatalf("type %d: a summary AFR costs %d bytes, want 58", typ, got)
		}
		rec, _, err := DecodeWALRecord(frame(plain, summary))
		if err != nil {
			t.Fatal(err)
		}
		want := []packet.AFR{
			{Key: snapKey(1), Attr: 2, SubWindow: 6, Seq: 4},
			{Key: snapKey(2), Attr: 5, SubWindow: 6, Seq: 1 << 31, Distinct: [4]uint64{1, 2, 3, 1 << 63}, HasDistinct: true},
		}
		if !reflect.DeepEqual(rec.AFRs, want) {
			t.Fatalf("type %d: decoded %+v, want %+v", typ, rec.AFRs, want)
		}
	}
}

func TestSnapshotEmptyRoundTrip(t *testing.T) {
	buf := EncodeSnapshot(nil, &Snapshot{})
	got, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&Snapshot{}, got) {
		t.Fatalf("empty snapshot round trip: %+v", got)
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	buf := EncodeSnapshot(nil, sampleSnapshot())
	if err := VerifySnapshot(buf); err != nil {
		t.Fatalf("intact snapshot failed verification: %v", err)
	}
	// The scrubber's check (VerifySnapshot) must catch every flip the
	// decoder does: it is the decoder's first step.
	for _, pos := range []int{5, len(buf) / 2, len(buf) - 5} {
		mangled := append([]byte(nil), buf...)
		mangled[pos] ^= 0x40
		if _, err := DecodeSnapshot(mangled); err == nil {
			t.Fatalf("bit flip at %d not detected", pos)
		}
		if VerifySnapshot(mangled) == nil {
			t.Fatalf("bit flip at %d passed verification", pos)
		}
	}
	for _, cut := range []int{1, 10, len(buf) / 2} {
		if _, err := DecodeSnapshot(buf[:len(buf)-cut]); err == nil {
			t.Fatalf("truncation by %d not detected", cut)
		}
	}
	if _, err := DecodeSnapshot(nil); err != ErrTruncated {
		t.Fatalf("nil snapshot: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 99
	if _, err := DecodeSnapshot(bad); err != ErrBadVersion {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []*WALRecord{
		{Type: WALAFRBatch, LSN: 1, SubWindow: 2, Retrans: true, AFRs: []packet.AFR{
			{Key: snapKey(1), Attr: 3, SubWindow: 2, Seq: 9},
		}},
		{Type: WALAFRBatch, LSN: 2, SubWindow: 2, AFRs: []packet.AFR{}},
		{Type: WALTrigger, LSN: 3, SubWindow: 2, KeyCount: 77},
		{Type: WALFinish, LSN: 4, SubWindow: 2},
		{Type: WALShed, LSN: 5, SubWindow: 2, Count: 13},
		{Type: WALSpike, LSN: 6, SubWindow: 1, AFRs: []packet.AFR{{Key: snapKey(2), Attr: 1, SubWindow: 1, Seq: 40}}},
		{Type: WALColumn, LSN: 7, Term: 3, SubWindow: 1, AFRs: []packet.AFR{
			{Key: snapKey(1), Attr: 7, SubWindow: 1, Distinct: [4]uint64{1, 2, 3, 4}, HasDistinct: true},
			{Key: snapKey(2), Attr: 9, SubWindow: 1},
		}},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendWALRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := DecodeWALRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(want.AFRs) == 0 {
			want.AFRs = nil
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("record %d mismatch:\nin:  %+v\nout: %+v", i, want, got)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestWALRecordTornTail(t *testing.T) {
	full := AppendWALRecord(nil, &WALRecord{Type: WALTrigger, LSN: 1, SubWindow: 5, KeyCount: 3})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeWALRecord(full[:len(full)-cut]); err != ErrTruncated {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-6] ^= 1
	if _, _, err := DecodeWALRecord(corrupt); err != ErrChecksum {
		t.Fatalf("corrupt frame: %v, want ErrChecksum", err)
	}
}
