// WAL segment header codec. Every on-disk WAL segment (internal/durable)
// opens with one fixed-size header naming its generation number and the
// fencing term of the writer that opened it. Recovery uses the header to
// reject files that are foreign, truncated before the first frame, or
// bit-rotted in the preamble — any of which quarantines the segment
// rather than feeding garbage into replay.
package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// SegMagic ("OWSG") and SegVersion identify WAL segment headers. Version
// 2 added the writer's fencing term to the preamble, so every segment
// rotation durably records which term-holder opened it; version 3 dropped
// the chain id, since the store keeps one log; version 4 segments may hold
// spike and column frames (WALSpike, WALColumn), the log being the
// store's only data file; version 5 logs batch and spike records in the
// cell layout, sequence number first (26 B an AFR, was 67 B), their
// sub-window named once by the frame.
const (
	SegMagic   uint32 = 0x4F575347
	SegVersion uint8  = 5
)

// SegmentHeader is the first SegmentHeaderSize bytes of every segment.
type SegmentHeader struct {
	Gen uint64
	// Term is the fencing term of the writer that opened the segment
	// (internal/durable); recovery uses the newest segment term to
	// rebuild fencing authority when the term file itself is damaged.
	Term uint64
}

// SegmentHeaderSize is the fixed on-disk header length:
// magic(4) + version(1) + gen(8) + term(8) + crc(4).
const SegmentHeaderSize = 4 + 1 + 8 + 8 + 4

// AppendSegmentHeader appends the encoded header to buf and returns it.
func AppendSegmentHeader(buf []byte, h *SegmentHeader) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, SegMagic)
	buf = append(buf, SegVersion)
	buf = binary.BigEndian.AppendUint64(buf, h.Gen)
	buf = binary.BigEndian.AppendUint64(buf, h.Term)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// DecodeSegmentHeader parses the header at the front of data. ErrTruncated
// means the file ends before a full header (a crash during segment
// creation); ErrBadMagic/ErrBadVersion/ErrChecksum mean the preamble is
// damaged or foreign.
func DecodeSegmentHeader(data []byte) (SegmentHeader, error) {
	var h SegmentHeader
	if len(data) < SegmentHeaderSize {
		return h, ErrTruncated
	}
	if err := checkSeal(data[:SegmentHeaderSize], SegMagic, SegVersion); err != nil {
		return h, err
	}
	h.Gen = binary.BigEndian.Uint64(data[5:])
	h.Term = binary.BigEndian.Uint64(data[13:])
	return h, nil
}

// VerifyWALFrame checks the first WAL frame of data without materializing
// the record (no allocation): it returns the frame's total length on
// success, ErrTruncated for an incomplete frame, and ErrChecksum for a
// complete frame whose CRC trailer does not match. It is the frame's one
// integrity check: DecodeWALRecord frames through it, and the scrubber
// walks it over the active segment.
func VerifyWALFrame(data []byte) (int, error) {
	if len(data) < walHeaderSize {
		return 0, ErrTruncated
	}
	plen := int(binary.BigEndian.Uint32(data))
	total := walHeaderSize + plen + sumSize
	if plen < walFixedPayload || len(data) < total {
		return 0, ErrTruncated
	}
	payload := data[walHeaderSize : walHeaderSize+plen]
	if binary.BigEndian.Uint32(data[walHeaderSize+plen:]) != crc32.ChecksumIEEE(payload) {
		return 0, ErrChecksum
	}
	return total, nil
}
