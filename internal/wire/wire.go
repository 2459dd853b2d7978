// Package wire serializes the OmniWindow custom header for transmission
// between switches and the controller. On hardware the header sits
// between the Ethernet and IP headers (paper §8); here it becomes the
// payload of UDP datagrams so a controller can run as an ordinary network
// service (see the collector in examples/udpcollector).
//
// Encoding is fixed-layout big-endian via encoding/binary — no reflection
// on the hot path, no allocations beyond the output buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"omniwindow/internal/packet"
)

// Magic ("OW" in ASCII) and Version identify OmniWindow datagrams.
// Version 2 added the NACK sequence list and the CRC-32 trailer; version 3
// added the synchronization epoch carried by every stamp (switch-failure
// tolerance: stale-epoch stamps from rebooted switches are rejected);
// version 4 dropped the app byte and the raw-word and NACK-sequence
// sections, which no switch or controller sent; version 5 dropped the
// epoch again with the switch-failure layer that read it.
const (
	Magic   uint16 = 0x4F57
	Version uint8  = 5
)

// Errors returned by Decode.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated datagram")
	ErrChecksum   = errors.New("wire: checksum mismatch")
)

// afrSize is the encoded size of one AFR: key(13) + attr(8) +
// subwindow(8) + seq(4) + app(1) + flags(1) + summary(32). The flag byte
// is 1 when the record carries a summary (packet.Summary), whose words
// follow either way.
const afrSize = packet.KeyBytes + 8 + 8 + 4 + 1 + 1 + 32

// The fixed header prefix, one offset per field: magic(2) + version(1) +
// flag(1) + subwindow(8) + hasSub(1) + index(4) + keycount(4) + key(13) +
// userSignal(8) + hasUser(1) + nAFRs(2). Encode appends the fields in
// this order; DecodeInto and the peeks read them at these offsets.
const (
	offVersion    = 2
	offFlag       = offVersion + 1
	offSubWindow  = offFlag + 1
	offHasSub     = offSubWindow + 8
	offIndex      = offHasSub + 1
	offKeyCount   = offIndex + 4
	offKey        = offKeyCount + 4
	offUserSignal = offKey + packet.KeyBytes
	offHasUser    = offUserSignal + 8
	offNAFRs      = offHasUser + 1
	headerSize    = offNAFRs + 2
)

// sumSize is the CRC-32 (IEEE) trailer covering everything before it.
// In-flight truncation changes the frame length (caught by the count
// fields) and in-flight corruption breaks the checksum, so the fault
// layer's mangled datagrams are always detected, never silently merged.
const sumSize = 4

// MaxAFRsPerDatagram bounds records per datagram so encoded packets fit
// comfortably in one MTU-sized-ish datagram (the simulation is not bound
// by a real MTU; the bound keeps encodings sane).
const MaxAFRsPerDatagram = 128

// EncodedSize returns the byte size Encode will produce for p.
func EncodedSize(p *packet.Packet) int {
	return headerSize + len(p.OW.AFRs)*afrSize + sumSize
}

// Encode serializes p's OmniWindow header into buf, growing it as needed,
// and returns the resulting slice.
func Encode(buf []byte, p *packet.Packet) ([]byte, error) {
	if len(p.OW.AFRs) > MaxAFRsPerDatagram {
		return nil, fmt.Errorf("wire: %d AFRs exceed the %d per-datagram bound", len(p.OW.AFRs), MaxAFRsPerDatagram)
	}
	if n := len(p.OW.Summaries); n != 0 && n != len(p.OW.AFRs) {
		return nil, fmt.Errorf("wire: %d summaries for %d AFRs", n, len(p.OW.AFRs))
	}
	need := EncodedSize(p)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]

	buf = binary.BigEndian.AppendUint16(buf, magicValue)
	buf = append(buf, Version, byte(p.OW.Flag))
	buf = binary.BigEndian.AppendUint64(buf, p.OW.SubWindow)
	buf = append(buf, b2u(p.OW.HasSubWindow))
	buf = binary.BigEndian.AppendUint32(buf, p.OW.Index)
	buf = binary.BigEndian.AppendUint32(buf, p.OW.KeyCount)
	kb := p.OW.Key.Bytes()
	buf = append(buf, kb[:]...)
	buf = binary.BigEndian.AppendUint64(buf, p.OW.UserSignal)
	buf = append(buf, b2u(p.OW.HasUserSignal))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.OW.AFRs)))

	for i := range p.OW.AFRs {
		buf = appendAFR(buf, &p.OW.AFRs[i], packet.SummaryAt(p.OW.Summaries, i))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses a datagram produced by Encode into a fresh packet holding
// only the OmniWindow header (the simulated payload does not travel).
func Decode(data []byte) (*packet.Packet, error) {
	p := &packet.Packet{}
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a datagram produced by Encode into p, reusing p's
// slice capacity instead of allocating per frame — a collector's ingest
// workers decode every datagram into one long-lived packet, so the steady
// state allocates nothing. An AFR or summary slice too small for the frame
// is replaced by a larger one, which p keeps: callers must treat p and its
// slices as reusable scratch and never retain them past the next
// DecodeInto. Summaries come back empty when no record carries one.
//
// On error p's contents are unspecified; it remains valid scratch for the
// next call. data is not retained.
func DecodeInto(p *packet.Packet, data []byte) error {
	if len(data) < headerSize+sumSize {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != magicValue {
		return ErrBadMagic
	}
	if data[offVersion] != Version {
		return ErrBadVersion
	}
	nAFR := int(binary.BigEndian.Uint16(data[offNAFRs:]))
	if len(data) != headerSize+nAFR*afrSize+sumSize {
		return ErrTruncated
	}
	body := data[:len(data)-sumSize]
	if binary.BigEndian.Uint32(data[len(body):]) != crc32.ChecksumIEEE(body) {
		return ErrChecksum
	}
	// Hold on to the AFR and summary capacity across the reset: every
	// other field zeroes like a fresh packet, matching Decode exactly.
	afrs, summ := p.OW.AFRs[:0], p.OW.Summaries[:0]
	*p = packet.Packet{}
	p.OW.Flag = packet.OWFlag(data[offFlag])
	p.OW.SubWindow = binary.BigEndian.Uint64(data[offSubWindow:])
	p.OW.HasSubWindow = data[offHasSub] != 0
	p.OW.Index = binary.BigEndian.Uint32(data[offIndex:])
	p.OW.KeyCount = binary.BigEndian.Uint32(data[offKeyCount:])
	var kb [packet.KeyBytes]byte
	copy(kb[:], data[offKey:])
	p.OW.Key = packet.KeyFromBytes(kb)
	p.OW.UserSignal = binary.BigEndian.Uint64(data[offUserSignal:])
	p.OW.HasUserSignal = data[offHasUser] != 0
	if nAFR > 0 {
		if cap(afrs) < nAFR {
			afrs = make([]packet.AFR, nAFR)
		}
		afrs = afrs[:nAFR]
		off := headerSize
		for i := range afrs {
			summ = packet.AppendSummary(summ, i, decodeAFR(data[off:], &afrs[i]))
			off += afrSize
		}
		p.OW.AFRs = afrs
		if len(summ) > 0 {
			p.OW.Summaries = summ
		}
	}
	return nil
}

// magicValue aliases Magic internally.
const magicValue = Magic

// appendAFR serializes one AFR and its summary s (zero: none) in the
// fixed afrSize layout shared by datagrams and the manifest's pending
// records. The log writes the smaller cell layout (appendCell), with the
// sub-window in the frame.
func appendAFR(buf []byte, r *packet.AFR, s packet.Summary) []byte {
	rk := r.Key.Bytes()
	buf = append(buf, rk[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Attr)
	buf = binary.BigEndian.AppendUint64(buf, r.SubWindow)
	buf = binary.BigEndian.AppendUint32(buf, r.Seq)
	buf = append(buf, r.App, b2u(s != packet.Summary{}))
	for _, w := range s {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// decodeAFR parses one afrSize-byte record into r and returns its summary,
// zero when the flag byte says it carries none. The caller guarantees
// len(data) >= afrSize.
func decodeAFR(data []byte, r *packet.AFR) (s packet.Summary) {
	var kb [packet.KeyBytes]byte
	copy(kb[:], data)
	r.Key = packet.KeyFromBytes(kb)
	off := packet.KeyBytes
	r.Attr = binary.BigEndian.Uint64(data[off:])
	r.SubWindow = binary.BigEndian.Uint64(data[off+8:])
	r.Seq = binary.BigEndian.Uint32(data[off+16:])
	r.App = data[off+20]
	if data[off+21] != 0 {
		off += 22
		for w := range s {
			s[w] = binary.BigEndian.Uint64(data[off:])
			off += 8
		}
	}
	return s
}

// Peek reads a datagram's routing fields — flag, header sub-window, key
// count and the per-record sub-windows of AFR payloads — without a full
// decode and without verifying the checksum. Admission control uses it to
// classify frames and to account records it is about to shed (recording
// WHICH sub-window lost data even when the frame itself is discarded).
// Because the CRC is not checked, a corrupted frame may peek to garbage;
// shed accounting is therefore advisory while ingest stays CRC-exact.
type Peek struct {
	// Flag is the OmniWindow frame type.
	Flag packet.OWFlag
	// SubWindow and KeyCount are the header fields (trigger frames).
	SubWindow uint64
	KeyCount  uint32
	// AFRSubWindows maps sub-window -> record count for AFR-bearing
	// frames (nil when the frame carries none).
	AFRSubWindows map[uint64]int
}

// PeekFlag reads only a datagram's frame type, allocation-free — the
// collector's reader triages every datagram (control vs data) and must not
// pay PeekDatagram's per-sub-window map for frames it is going to keep.
// ok is false when the frame is too short or not an OmniWindow datagram.
func PeekFlag(data []byte) (packet.OWFlag, bool) {
	if !peekable(data) {
		return 0, false
	}
	return packet.OWFlag(data[offFlag]), true
}

// PeekDatagram inspects data; ok is false when the frame is too short or
// not a datagram of this Version (such frames cannot be attributed).
func PeekDatagram(data []byte) (Peek, bool) {
	if !peekable(data) {
		return Peek{}, false
	}
	pk := Peek{
		Flag:      packet.OWFlag(data[offFlag]),
		SubWindow: binary.BigEndian.Uint64(data[offSubWindow:]),
		KeyCount:  binary.BigEndian.Uint32(data[offKeyCount:]),
	}
	nAFR := int(binary.BigEndian.Uint16(data[offNAFRs:]))
	off := headerSize
	if nAFR > 0 && len(data) >= headerSize+nAFR*afrSize {
		pk.AFRSubWindows = make(map[uint64]int, 1)
		for i := 0; i < nAFR; i++ {
			sw := binary.BigEndian.Uint64(data[off+packet.KeyBytes+8:])
			pk.AFRSubWindows[sw]++
			off += afrSize
		}
	}
	return pk, true
}

// peekable reports whether data holds a whole header of this Version.
func peekable(data []byte) bool {
	return len(data) >= headerSize && binary.BigEndian.Uint16(data) == magicValue && data[offVersion] == Version
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
