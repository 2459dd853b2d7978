package wire

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"omniwindow/internal/packet"
)

func TestSegmentHeaderRoundTrip(t *testing.T) {
	for _, h := range []SegmentHeader{
		{Gen: 1},
		{Gen: 123456},
		{Gen: 42},
		{Gen: 5, Term: 3},
		{Gen: 1, Term: 1<<64 - 1},
		{Gen: 1<<64 - 1, Term: 7},
	} {
		buf := AppendSegmentHeader(nil, &h)
		if len(buf) != SegmentHeaderSize {
			t.Fatalf("header length %d, want %d", len(buf), SegmentHeaderSize)
		}
		got, err := DecodeSegmentHeader(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestSegmentHeaderRejectsDamage(t *testing.T) {
	buf := AppendSegmentHeader(nil, &SegmentHeader{Gen: 9, Term: 3})

	if _, err := DecodeSegmentHeader(buf[:SegmentHeaderSize-1]); err != ErrTruncated {
		t.Fatalf("truncated header: %v, want ErrTruncated", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := DecodeSegmentHeader(bad); err != ErrBadMagic {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), buf...)
	bad[4] = 99
	if _, err := DecodeSegmentHeader(bad); err != ErrBadVersion {
		t.Fatalf("bad version: %v, want ErrBadVersion", err)
	}

	bad = append([]byte(nil), buf...)
	bad[6] ^= 0x01 // flip a generation byte without touching magic/version
	if _, err := DecodeSegmentHeader(bad); err != ErrChecksum {
		t.Fatalf("bit rot: %v, want ErrChecksum", err)
	}
}

// A version-2 header — the per-shard layout's, which named its chain — is
// rejected, not read as a version-3 one: a directory older releases wrote
// is not replayed.
func TestSegmentHeaderRejectsVersion2(t *testing.T) {
	v2 := binary.BigEndian.AppendUint32(nil, SegMagic)
	v2 = append(v2, 2)
	v2 = binary.BigEndian.AppendUint32(v2, 0) // chain
	v2 = binary.BigEndian.AppendUint64(v2, 1) // generation
	v2 = binary.BigEndian.AppendUint64(v2, 0) // term
	v2 = binary.BigEndian.AppendUint32(v2, crc32.ChecksumIEEE(v2))
	if _, err := DecodeSegmentHeader(v2); err != ErrBadVersion {
		t.Fatalf("version-2 header: %v, want ErrBadVersion", err)
	}
}

func TestVerifyWALFrame(t *testing.T) {
	rec := &WALRecord{
		Type:      WALAFRBatch,
		LSN:       5,
		SubWindow: 2,
		AFRs:      []packet.AFR{{Attr: 7, SubWindow: 2, Seq: 1}},
	}
	frame := AppendWALRecord(nil, rec)

	n, err := VerifyWALFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("good frame: n=%d err=%v, want n=%d err=nil", n, err, len(frame))
	}

	// Verification must agree byte-for-byte with the materializing decoder.
	_, dn, derr := DecodeWALRecord(frame)
	if derr != nil || dn != n {
		t.Fatalf("decode/verify disagree: %d vs %d (%v)", dn, n, derr)
	}

	for cut := 1; cut <= len(frame); cut++ {
		if _, err := VerifyWALFrame(frame[:len(frame)-cut]); err != ErrTruncated {
			t.Fatalf("cut %d: %v, want ErrTruncated", cut, err)
		}
	}

	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := VerifyWALFrame(bad); err == nil {
			// A flip inside the length prefix may turn the frame into a
			// truncated one; a flip anywhere else must fail the CRC. No
			// flip may verify.
			t.Fatalf("byte %d flipped but frame verified", i)
		}
	}
}
