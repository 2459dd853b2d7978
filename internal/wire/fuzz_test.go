package wire

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

// fuzzSeeds are well-formed frames of every kind the collector path
// handles, plus fault-layer-mangled variants (truncated and corrupted
// datagrams exactly as the chaos injector produces them).
func fuzzSeeds() [][]byte {
	var out [][]byte
	add := func(p *packet.Packet) {
		buf, err := Encode(nil, p)
		if err != nil {
			panic(err)
		}
		out = append(out, buf)
	}
	add(samplePacket())
	add(&packet.Packet{})
	add(&packet.Packet{OW: packet.OWHeader{
		Flag: packet.OWTrigger, SubWindow: 5, HasSubWindow: true,
		KeyCount: 500,
	}})
	add(&packet.Packet{OW: packet.OWHeader{
		Flag: packet.OWRetransmit, SubWindow: 5, HasSubWindow: true,
		AFRs: []packet.AFR{{Attr: 9, SubWindow: 5, Seq: 2}},
	}})
	// A retransmit whose second record alone carries a summary.
	add(&packet.Packet{OW: packet.OWHeader{
		Flag: packet.OWRetransmit, SubWindow: 6, HasSubWindow: true,
		AFRs:      []packet.AFR{{Attr: 1, SubWindow: 6, Seq: 0}, {Attr: 4, SubWindow: 6, Seq: 1}},
		Summaries: []packet.Summary{{}, {1 << 63, 0, 5, 1}},
	}})
	// A first-hop stamp and a latency-spike copy bound for the
	// controller's software path.
	add(&packet.Packet{OW: packet.OWHeader{
		SubWindow: 7, HasSubWindow: true,
		Key: packet.FlowKey{SrcIP: 9, Proto: 6},
	}})
	add(&packet.Packet{OW: packet.OWHeader{
		Flag: packet.OWLatencySpike, SubWindow: 2, HasSubWindow: true,
		Key: packet.FlowKey{SrcIP: 12, DstIP: 8, Proto: 17},
	}})

	// Mangled variants: run each frame through a truncate-always and a
	// corrupt-always injector, as in-flight damage from the fault layer.
	for _, cfg := range []faults.Config{
		{Seed: 1, Truncate: 1},
		{Seed: 2, Corrupt: 1},
	} {
		inj := faults.New(cfg)
		for _, frame := range out[:4] {
			out = append(out, inj.Datagrams(frame)...)
		}
	}
	return out
}

// FuzzDecode hammers the datagram parser with arbitrary bytes: it must
// never panic, and whatever it accepts must survive a semantic round trip
// (decode → encode → decode yields an identical header). Byte identity is
// not required: boolean fields accept any non-zero byte on the wire but
// re-encode canonically as 1.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0x4F, 0x57, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, data, p)
	})
}

// FuzzDecodePatched is the same harness with the CRC-32 trailer patched
// to match before decoding, so mutations reach the body parser instead
// of dying at the checksum gate. Anything the parser then accepts must
// still survive a semantic round trip.
func FuzzDecodePatched(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= headerSize+sumSize {
			data = append([]byte(nil), data...)
			body := data[:len(data)-sumSize]
			binary.BigEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		}
		p, err := Decode(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, data, p)
	})
}

// checkRoundTrip asserts decode → encode → decode yields an identical
// header at the identical canonical size, and that the peeks agree with
// the decode of data.
func checkRoundTrip(t *testing.T, data []byte, p *packet.Packet) {
	t.Helper()
	checkPeek(t, data, p)
	out, err := Encode(nil, p)
	if err != nil {
		// Decoded packets can exceed the encode bound only if the
		// parser accepted more AFRs than Encode allows.
		if len(p.OW.AFRs) <= MaxAFRsPerDatagram {
			t.Fatalf("re-encode failed: %v", err)
		}
		return
	}
	if len(out) != len(data) {
		t.Fatalf("canonical size mismatch: %d vs %d", len(out), len(data))
	}
	q, err := Decode(out)
	if err != nil {
		t.Fatalf("canonical form did not decode: %v", err)
	}
	if !headerEqual(&p.OW, &q.OW) {
		t.Fatalf("semantic round trip mismatch:\n%+v\n%+v", p.OW, q.OW)
	}
}

// checkPeek asserts that PeekFlag and PeekDatagram accept data, which
// Decode accepted as p, and read the same routing fields from it.
func checkPeek(t *testing.T, data []byte, p *packet.Packet) {
	t.Helper()
	flag, ok := PeekFlag(data)
	if !ok || flag != p.OW.Flag {
		t.Fatalf("PeekFlag = %v, %v; Decode read flag %v", flag, ok, p.OW.Flag)
	}
	pk, ok := PeekDatagram(data)
	if !ok {
		t.Fatal("PeekDatagram rejected a frame Decode accepted")
	}
	if pk.Flag != p.OW.Flag || pk.SubWindow != p.OW.SubWindow || pk.KeyCount != p.OW.KeyCount {
		t.Fatalf("peek %+v disagrees with decode: flag %v sub-window %d key count %d",
			pk, p.OW.Flag, p.OW.SubWindow, p.OW.KeyCount)
	}
	var want map[uint64]int
	if len(p.OW.AFRs) > 0 {
		want = make(map[uint64]int)
		for _, r := range p.OW.AFRs {
			want[r.SubWindow]++
		}
	}
	if !maps.Equal(pk.AFRSubWindows, want) || (pk.AFRSubWindows == nil) != (want == nil) {
		t.Fatalf("peeked AFR sub-windows %v, decoded %v", pk.AFRSubWindows, want)
	}
}
