package wire

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"omniwindow/internal/packet"
)

// snapFuzzSeeds are well-formed snapshots plus truncated and bit-flipped
// variants — exactly the damage a torn write or disk rot inflicts on a
// checkpoint file.
func snapFuzzSeeds() [][]byte {
	var out [][]byte
	out = append(out, EncodeSnapshot(nil, sampleSnapshot()))
	out = append(out, EncodeSnapshot(nil, &Snapshot{}))
	out = append(out, EncodeSnapshot(nil, &Snapshot{
		ThroughLSN: 1 << 40,
		Dedups:     []SnapDedup{{SW: 9, Expected: -1, Seen: []uint32{0}}},
	}))
	// A steady-state manifest: the live list, a finished sub-window's
	// accounting and no pending records.
	out = append(out, EncodeSnapshot(nil, &Snapshot{
		ThroughLSN: 9, Term: 2, LastFinished: 6, HasFinished: true,
		Live: []uint64{3, 4, 5, 6},
		Rels: []SnapRel{{SW: 6, Expected: 2, Received: 2, Spikes: 1}},
	}))
	// Spike copies pending in an open sub-window: records with summary
	// words and without, and the spikes counted in its arrival state.
	out = append(out, EncodeSnapshot(nil, &Snapshot{
		ThroughLSN: 4, LastFinished: 2, HasFinished: true,
		Live: []uint64{2},
		Pending: []packet.AFR{
			{Key: snapKey(3), Attr: 4, SubWindow: 3, Distinct: [4]uint64{8, 0, 0, 1}, HasDistinct: true},
			{Key: snapKey(4), Attr: 1, SubWindow: 3},
		},
		Dedups: []SnapDedup{{SW: 3, Expected: 2, Spikes: 2}},
	}))
	// A manifest cut under a newer term, with no finish yet.
	out = append(out, EncodeSnapshot(nil, &Snapshot{
		ThroughLSN: 9, Term: 3,
		Dedups: []SnapDedup{{SW: 0, Expected: -1}, {SW: 1, Expected: 4, Recovered: 1, Seen: []uint32{3}}},
	}))
	full := out[0]
	out = append(out, full[:len(full)/2], full[:len(full)-3])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x10
	out = append(out, flipped)
	return out
}

// FuzzDecodeSnapshot hammers the checkpoint decoder: arbitrary bytes must
// never panic or over-allocate, and whatever decodes must survive an
// encode → decode round trip bit-for-bit (snapshot encoding is canonical,
// unlike datagrams there is exactly one valid byte form per state).
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range snapFuzzSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		out := EncodeSnapshot(nil, s)
		if len(out) != len(data) {
			t.Fatalf("canonical size mismatch: %d vs %d", len(out), len(data))
		}
		q, err := DecodeSnapshot(out)
		if err != nil {
			t.Fatalf("canonical form did not decode: %v", err)
		}
		if !reflect.DeepEqual(s, q) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", s, q)
		}
	})
}

// FuzzDecodeSnapshotPatched patches the CRC trailer to match before
// decoding, so mutations reach the body parser instead of dying at the
// checksum gate — the parser's length-guards must hold on their own.
func FuzzDecodeSnapshotPatched(f *testing.F) {
	for _, s := range snapFuzzSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= snapHeaderSize+sumSize {
			data = append([]byte(nil), data...)
			body := data[:len(data)-sumSize]
			binary.BigEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		}
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if _, err := DecodeSnapshot(EncodeSnapshot(nil, s)); err != nil {
			t.Fatalf("canonical form did not decode: %v", err)
		}
	})
}

// FuzzDecodeWALRecord covers the log-frame parser the same way: torn
// tails must report ErrTruncated, corruption ErrChecksum, and accepted
// frames must round-trip.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALTrigger, LSN: 7, SubWindow: 3, KeyCount: 11}))
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALFinish, LSN: 8, SubWindow: 3}))
	batch := AppendWALRecord(nil, &WALRecord{Type: WALAFRBatch, LSN: 9, SubWindow: 3, AFRs: samplePacket().OW.AFRs})
	f.Add(batch)
	f.Add(batch[:len(batch)-2])
	f.Add([]byte{})
	// Fenced frames: terms in the fixed payload header, including the
	// all-ones term a corrupted fencing field would present.
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALFinish, LSN: 10, Term: 2, SubWindow: 4}))
	fenced := AppendWALRecord(nil, &WALRecord{Type: WALTrigger, LSN: 11, Term: 1<<64 - 1, SubWindow: 4, KeyCount: 1})
	f.Add(fenced)
	f.Add(fenced[:walHeaderSize+walFixedPayload-1])
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALSpike, LSN: 12, SubWindow: 2,
		AFRs: []packet.AFR{{Key: snapKey(7), Attr: 1, Seq: 300}}}))
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALAFRBatch, LSN: 14, Retrans: true, SubWindow: 5, AFRs: []packet.AFR{
		{Key: snapKey(5), Attr: 9, SubWindow: 5, Seq: 2, Distinct: [4]uint64{1 << 40, 3, 0, 7}, HasDistinct: true},
		{Key: snapKey(6), Attr: 1, SubWindow: 5, Seq: 3},
	}}))
	// Input records naming another sub-window: the frame's wins.
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALAFRBatch, LSN: 15, SubWindow: 8, AFRs: []packet.AFR{
		{Key: snapKey(8), Attr: 2, SubWindow: 3, Seq: 5, App: 2},
	}}))
	f.Add(AppendWALRecord(nil, &WALRecord{Type: WALColumn, LSN: 13, Term: 1, SubWindow: 2, AFRs: []packet.AFR{
		{Key: snapKey(3), Attr: 4, Distinct: [4]uint64{8, 0, 0, 1}, HasDistinct: true},
		{Key: snapKey(4), Attr: 1},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		out := AppendWALRecord(nil, rec)
		q, m, err := DecodeWALRecord(out)
		if err != nil || m != len(out) {
			t.Fatalf("canonical form did not decode: %v (%d of %d)", err, m, len(out))
		}
		if !reflect.DeepEqual(rec, q) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", rec, q)
		}
	})
}
