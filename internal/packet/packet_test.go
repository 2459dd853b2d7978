package packet

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKeyBytesRoundTrip(t *testing.T) {
	k := FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 12345, DstPort: 443, Proto: ProtoTCP}
	got := KeyFromBytes(k.Bytes())
	if got != k {
		t.Fatalf("round trip mismatch: got %v want %v", got, k)
	}
}

func TestKeyBytesRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		var put [KeyBytes + 1]byte
		put[KeyBytes] = 0xAA
		k.PutBytes(put[:])
		return KeyFromBytes(k.Bytes()) == k && [KeyBytes]byte(put[:KeyBytes]) == k.Bytes() && put[KeyBytes] == 0xAA
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyBytesBigEndianLayout(t *testing.T) {
	k := FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 0x0910, DstPort: 0x1112, Proto: 0x13}
	b := k.Bytes()
	want := [KeyBytes]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10, 0x11, 0x12, 0x13}
	if b != want {
		t.Fatalf("layout mismatch: got %v want %v", b, want)
	}
}

func TestReverseIsInvolution(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverseSwaps(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}
	r := k.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 4 || r.DstPort != 3 || r.Proto != ProtoUDP {
		t.Fatalf("unexpected reverse: %+v", r)
	}
}

func TestIsZero(t *testing.T) {
	var zero FlowKey
	if !zero.IsZero() {
		t.Fatal("zero key should be zero")
	}
	if (FlowKey{SrcIP: 1}).IsZero() {
		t.Fatal("non-zero key should not be zero")
	}
}

func TestHostKeysDropOtherFields(t *testing.T) {
	k := FlowKey{SrcIP: 11, DstIP: 22, SrcPort: 33, DstPort: 44, Proto: ProtoTCP}
	s := k.SrcHostKey()
	if s.SrcIP != 11 || s.DstIP != 0 || s.SrcPort != 0 || s.DstPort != 0 || s.Proto != ProtoTCP {
		t.Fatalf("bad src host key: %+v", s)
	}
	d := k.DstHostKey()
	if d.DstIP != 22 || d.SrcIP != 0 || d.SrcPort != 0 || d.DstPort != 0 {
		t.Fatalf("bad dst host key: %+v", d)
	}
}

func TestKeyString(t *testing.T) {
	k := FlowKey{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	want := "10.0.0.1:1000->10.0.0.2:80/6"
	if got := k.String(); got != want {
		t.Fatalf("String() = %q want %q", got, want)
	}
}

func TestHasFlags(t *testing.T) {
	p := Packet{TCPFlags: FlagSYN | FlagACK}
	if !p.HasFlags(FlagSYN) || !p.HasFlags(FlagSYN|FlagACK) {
		t.Fatal("expected flags present")
	}
	if p.HasFlags(FlagFIN) || p.HasFlags(FlagSYN|FlagFIN) {
		t.Fatal("unexpected flags reported present")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Packet{Key: FlowKey{SrcIP: 1}, OW: OWHeader{Flag: OWAFR, AFRs: []AFR{{Attr: 7}}}}
	q := p.Clone()
	q.OW.AFRs[0].Attr = 99
	q.OW.AFRs = append(q.OW.AFRs, AFR{Attr: 1})
	if p.OW.AFRs[0].Attr != 7 || len(p.OW.AFRs) != 1 {
		t.Fatalf("clone aliased original: %+v", p.OW.AFRs)
	}
}

func TestCloneCopiesSummaries(t *testing.T) {
	p := &Packet{OW: OWHeader{Flag: OWAFR, AFRs: []AFR{{Attr: 7}}, Summaries: []Summary{{1, 2, 3, 4}}}}
	q := p.Clone()
	q.OW.Summaries[0][0] = 99
	if p.OW.Summaries[0] != (Summary{1, 2, 3, 4}) {
		t.Fatalf("clone aliased the original's summaries: %v", p.OW.Summaries)
	}
}

// TestAFRIs40Bytes pins the record every stage of the collection path
// copies by value: a summary travels beside it, not in it.
func TestAFRIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(AFR{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(AFR{}) = %d, want 40", n)
	}
}

// TestPacketIs136Bytes pins the simulated packet every trace holds by the
// million: its header's fields are ordered so that none pads.
func TestPacketIs136Bytes(t *testing.T) {
	if n := unsafe.Sizeof(OWHeader{}); n != 96 {
		t.Fatalf("unsafe.Sizeof(OWHeader{}) = %d, want 96", n)
	}
	if n := unsafe.Sizeof(Packet{}); n != 136 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 136", n)
	}
}

func TestAppendSummariesKeepsTheParallelForm(t *testing.T) {
	var s []Summary
	if s = AppendSummaries(s, 0, nil, 3); len(s) != 0 {
		t.Fatalf("records without summaries grew the slice to %d", len(s))
	}
	// The first summary pads the three records before it with zeros.
	s = AppendSummaries(s, 3, []Summary{{5}, {6}}, 2)
	if want := []Summary{{}, {}, {}, {5}, {6}}; !slices.Equal(s, want) {
		t.Fatalf("got %v, want %v", s, want)
	}
	// From there on, records without summaries append zeros.
	s = AppendSummaries(s, 5, nil, 2)
	if want := []Summary{{}, {}, {}, {5}, {6}, {}, {}}; !slices.Equal(s, want) {
		t.Fatalf("got %v, want %v", s, want)
	}
}

func TestIsSpecial(t *testing.T) {
	if (&Packet{}).IsSpecial() {
		t.Fatal("plain packet should not be special")
	}
	for _, f := range []OWFlag{OWCollection, OWReset, OWTrigger, OWInjectKey, OWAFR, OWSpill, OWLatencySpike} {
		if !(&Packet{OW: OWHeader{Flag: f}}).IsSpecial() {
			t.Fatalf("%v packet should be special", f)
		}
	}
}

func TestOWFlagString(t *testing.T) {
	for f := OWNone; f <= OWLatencySpike; f++ {
		if f.String() == "" {
			t.Fatalf("empty string for flag %d", f)
		}
	}
	if OWFlag(200).String() != "OWFlag(200)" {
		t.Fatalf("unexpected fallback: %s", OWFlag(200))
	}
}
