package wire

import (
	"slices"
	"testing"
	"testing/quick"

	"omniwindow/internal/packet"
)

func samplePacket() *packet.Packet {
	return &packet.Packet{OW: packet.OWHeader{
		Flag:          packet.OWAFR,
		SubWindow:     42,
		HasSubWindow:  true,
		Index:         7,
		KeyCount:      3,
		Key:           packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 1234, DstPort: 443, Proto: 6},
		UserSignal:    99,
		HasUserSignal: true,
		AFRs: []packet.AFR{
			{Key: packet.FlowKey{SrcIP: 1, Proto: 17}, Attr: 1000, SubWindow: 42, Seq: 0, App: 0},
			{Key: packet.FlowKey{SrcIP: 2, Proto: 6}, Attr: 2000, SubWindow: 42, Seq: 1, App: 1},
		},
		Summaries: []packet.Summary{{0xFF, 1, 2, 3}, {}},
	}}
}

func headerEqual(a, b *packet.OWHeader) bool {
	if a.Flag != b.Flag || a.SubWindow != b.SubWindow || a.HasSubWindow != b.HasSubWindow ||
		a.Index != b.Index || a.KeyCount != b.KeyCount || a.Key != b.Key ||
		a.UserSignal != b.UserSignal || a.HasUserSignal != b.HasUserSignal ||
		len(a.AFRs) != len(b.AFRs) || !slices.Equal(a.Summaries, b.Summaries) {
		return false
	}
	for i := range a.AFRs {
		if a.AFRs[i] != b.AFRs[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := Encode(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedSize(p) {
		t.Fatalf("encoded %d bytes, EncodedSize said %d", len(buf), EncodedSize(p))
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !headerEqual(&p.OW, &q.OW) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p.OW, q.OW)
	}
}

func TestRoundTripEmptyHeader(t *testing.T) {
	p := &packet.Packet{}
	buf, err := Encode(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !headerEqual(&p.OW, &q.OW) {
		t.Fatal("empty header round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(flag uint8, sw uint64, idx, kc uint32, app uint8, attr uint64, seq uint32, d0, d1 uint64) bool {
		p := &packet.Packet{OW: packet.OWHeader{
			Flag: packet.OWFlag(flag % 9), SubWindow: sw, HasSubWindow: sw%2 == 0,
			Index: idx, KeyCount: kc,
			AFRs: []packet.AFR{{Attr: attr, SubWindow: sw, Seq: seq, App: app}},
		}}
		if d0%2 == 0 {
			p.OW.Summaries = []packet.Summary{{d0, d1}}
		}
		buf, err := Encode(nil, p)
		if err != nil {
			return false
		}
		q, err := Decode(buf)
		return err == nil && headerEqual(&p.OW, &q.OW)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoSummaries reuses one packet across frames with and
// without summaries: a frame whose records carry none leaves Summaries
// empty, whatever the previous frame held, and a frame that carries some
// fills them parallel to its records, zero for a record without one.
func TestDecodeIntoSummaries(t *testing.T) {
	with := samplePacket()
	plain := samplePacket()
	plain.OW.Summaries = nil
	var p packet.Packet
	for i, src := range []*packet.Packet{with, plain, with} {
		buf, err := Encode(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&p, buf); err != nil {
			t.Fatal(err)
		}
		if !headerEqual(&src.OW, &p.OW) {
			t.Fatalf("frame %d: decoded %+v, want %+v", i, p.OW, src.OW)
		}
	}
	// Summaries must be parallel to the records, or absent.
	bad := samplePacket()
	bad.OW.Summaries = bad.OW.Summaries[:1]
	if _, err := Encode(nil, bad); err == nil {
		t.Fatal("Encode accepted 1 summary for 2 AFRs")
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, 0, 4096)
	out, _ := Encode(buf, p)
	if &out[0] != &buf[:1][0] {
		t.Fatal("large-enough buffer was not reused")
	}
}

func TestDecodeErrors(t *testing.T) {
	p := samplePacket()
	buf, _ := Encode(nil, p)

	if _, err := Decode(buf[:4]); err != ErrTruncated {
		t.Fatalf("short datagram: %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 0xFF
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 99
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
	// Truncated body: lengths promise more than present.
	if _, err := Decode(buf[:len(buf)-1]); err != ErrTruncated {
		t.Fatalf("truncated body: %v", err)
	}
	// Corrupted body: frame length intact, one bit flipped mid-payload.
	bad = append([]byte(nil), buf...)
	bad[len(bad)/2] ^= 0x10
	if _, err := Decode(bad); err != ErrChecksum {
		t.Fatalf("corrupted body: %v", err)
	}
	// Corrupted trailer: the CRC itself flipped.
	bad = append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); err != ErrChecksum {
		t.Fatalf("corrupted checksum: %v", err)
	}
}

// TestPeekAgreesWithDecode holds the two peeks to the full decode on
// every fuzz seed: a frame Decode accepts must peek to the same flag,
// sub-window, key count and per-sub-window AFR counts.
func TestPeekAgreesWithDecode(t *testing.T) {
	accepted := 0
	for _, data := range fuzzSeeds() {
		p, err := Decode(data)
		if err != nil {
			continue
		}
		accepted++
		checkPeek(t, data, p)
	}
	if accepted == 0 {
		t.Fatal("no fuzz seed decoded")
	}
}

func TestEncodeAFRBound(t *testing.T) {
	p := &packet.Packet{}
	p.OW.AFRs = make([]packet.AFR, MaxAFRsPerDatagram+1)
	if _, err := Encode(nil, p); err == nil {
		t.Fatal("oversized AFR list accepted")
	}
}

func BenchmarkEncode(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = Encode(buf, p)
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _ := Encode(nil, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
