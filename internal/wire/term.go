// Term-file codec. The durable store's fencing authority (internal/
// durable) is a monotonic term persisted in a single fixed-size record:
// a standby acquires the next term by compare-and-swap at promotion, and
// every subsequent write by the old term-holder is rejected (ErrFenced).
// The record follows the wire v2 conventions — fixed big-endian layout,
// a version byte, and a CRC-32 (IEEE) trailer — so a torn or bit-rotted
// term file is detected and rebuilt from segment headers rather than
// silently granting a stale writer authority.
package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// TermMagic ("OWTM") and TermVersion identify term-file records.
const (
	TermMagic   uint32 = 0x4F57544D
	TermVersion uint8  = 1
)

// TermRecord is the complete content of the term file.
type TermRecord struct {
	// Term is the monotonic fencing term. 0 means "never acquired".
	Term uint64
	// Holder identifies the acquiring writer (the deployment's promotion
	// ordinal) — diagnostic only; fencing compares Term alone.
	Holder uint32
}

// TermRecordSize is the fixed on-disk record length:
// magic(4) + version(1) + term(8) + holder(4) + crc(4).
const TermRecordSize = 4 + 1 + 8 + 4 + 4

// AppendTermRecord appends the encoded record to buf and returns it.
func AppendTermRecord(buf []byte, r *TermRecord) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, TermMagic)
	buf = append(buf, TermVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.Term)
	buf = binary.BigEndian.AppendUint32(buf, r.Holder)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// DecodeTermRecord parses a term file. ErrTruncated means the file ends
// before a full record (a crash during acquisition left a torn temp file
// behind); ErrBadMagic/ErrBadVersion/ErrChecksum mean the record is
// damaged or foreign. Any error quarantines the file and falls back to
// the newest term found in segment headers.
func DecodeTermRecord(data []byte) (TermRecord, error) {
	var r TermRecord
	if len(data) < TermRecordSize {
		return r, ErrTruncated
	}
	if err := checkSeal(data[:TermRecordSize], TermMagic, TermVersion); err != nil {
		return r, err
	}
	r.Term = binary.BigEndian.Uint64(data[5:])
	r.Holder = binary.BigEndian.Uint32(data[13:])
	return r, nil
}
