package switchsim

import (
	"strings"
	"testing"
	"time"

	"omniwindow/internal/packet"
)

func newTestSwitch(t *testing.T) *Switch {
	t.Helper()
	return New(0)
}

func mustReg(t *testing.T, sw *Switch, name string, stage, entries, width int) *Register[uint64] {
	t.Helper()
	r, err := AllocRegister[uint64](sw, name, stage, entries, width)
	if err != nil {
		t.Fatalf("alloc %s: %v", name, err)
	}
	return r
}

func TestRegisterReadWrite(t *testing.T) {
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 16, 8)
	sw.SetProgram(func(p *Pass) {
		v := ReadWrite(p, reg, 3, func(x uint64) uint64 { return x + 5 })
		if v != 5 {
			t.Errorf("ReadWrite returned %d want 5", v)
		}
	})
	sw.Inject(&packet.Packet{})
	if reg.Peek(3) != 5 {
		t.Fatalf("register not updated: %d", reg.Peek(3))
	}
}

func TestSingleAccessPerPassEnforced(t *testing.T) {
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 16, 8)
	sw.SetProgram(func(p *Pass) {
		Read(p, reg, 0)
		defer func() {
			if r := recover(); r == nil {
				t.Error("second access in one pass did not panic")
			} else if !strings.Contains(r.(string), "accessed twice") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		Read(p, reg, 1)
	})
	sw.Inject(&packet.Packet{})
}

func TestFeedForwardStageOrderEnforced(t *testing.T) {
	sw := newTestSwitch(t)
	early := mustReg(t, sw, "early", 1, 8, 8)
	late := mustReg(t, sw, "late", 3, 8, 8)
	sw.SetProgram(func(p *Pass) {
		Read(p, late, 0)
		defer func() {
			if r := recover(); r == nil {
				t.Error("backwards stage access did not panic")
			} else if !strings.Contains(r.(string), "feed-forward") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		Read(p, early, 0)
	})
	sw.Inject(&packet.Packet{})
}

func TestIndexOutOfRangePanics(t *testing.T) {
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 8, 8)
	sw.SetProgram(func(p *Pass) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("out-of-range access did not panic")
			}
		}()
		Read(p, reg, 8)
	})
	sw.Inject(&packet.Packet{})
}

func TestRecirculationRunsMultiplePasses(t *testing.T) {
	sw := newTestSwitch(t)
	passCount := 0
	sw.SetProgram(func(p *Pass) {
		passCount++
		if passCount < 4 {
			p.Recirculate()
		} else {
			p.Drop()
		}
	})
	out := sw.Inject(&packet.Packet{})
	if out.Passes != 4 {
		t.Fatalf("passes = %d want 4", out.Passes)
	}
	if len(out.Forward) != 0 {
		t.Fatalf("dropped packet still forwarded")
	}
	if out.Latency != 4*sw.Costs.PipelinePass {
		t.Fatalf("latency = %v", out.Latency)
	}
}

func TestSingleAccessResetsAcrossPasses(t *testing.T) {
	// A recirculated packet may access the same register again in its
	// next pass — that is the whole basis of C&R enumeration.
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 4, 8)
	i := 0
	sw.SetProgram(func(p *Pass) {
		Write(p, reg, i, uint64(i))
		i++
		if i < 4 {
			p.Recirculate()
		} else {
			p.Drop()
		}
	})
	sw.Inject(&packet.Packet{})
	for j := 0; j < 4; j++ {
		if reg.Peek(j) != uint64(j) {
			t.Fatalf("entry %d = %d", j, reg.Peek(j))
		}
	}
}

func TestCloneToControllerDoesNotConsumePacket(t *testing.T) {
	sw := newTestSwitch(t)
	sw.SetProgram(func(p *Pass) {
		c := p.Pkt.Clone()
		c.OW.Flag = packet.OWTrigger
		p.CloneToController(c)
	})
	out := sw.Inject(&packet.Packet{Key: packet.FlowKey{SrcIP: 1}})
	if len(out.Forward) != 1 || len(out.ToController) != 1 {
		t.Fatalf("forward=%d controller=%d", len(out.Forward), len(out.ToController))
	}
	if out.ToController[0].OW.Flag != packet.OWTrigger {
		t.Fatal("controller copy lost its flag")
	}
	if out.Forward[0].OW.Flag != packet.OWNone {
		t.Fatal("forwarded original was mutated by clone")
	}
}

func TestNoProgramForwards(t *testing.T) {
	sw := newTestSwitch(t)
	out := sw.Inject(&packet.Packet{})
	if len(out.Forward) != 1 || out.Passes != 1 {
		t.Fatalf("unexpected output: %+v", out)
	}
}

func TestLedgerAccounting(t *testing.T) {
	sw := newTestSwitch(t)
	sw.SetFeature("Flowkey tracking")
	mustReg(t, sw, "fk_buffer", 2, 8192, 16) // 128 KB
	mustReg(t, sw, "bloom0", 3, 32768, 1)    // 32 KB
	if err := sw.AllocMAT("fk_gate", 2, 4, 3, 2); err != nil {
		t.Fatal(err)
	}
	sw.SetFeature("Signal")
	mustReg(t, sw, "subwindow", 0, 1, 4)

	fk := sw.Ledger().Feature("Flowkey tracking")
	if fk.Stages != 2 {
		t.Fatalf("feature stages = %d want 2", fk.Stages)
	}
	if fk.SALUs != 2 {
		t.Fatalf("feature SALUs = %d want 2", fk.SALUs)
	}
	if fk.SRAMKB != 128+32+4 {
		t.Fatalf("feature SRAM = %d", fk.SRAMKB)
	}
	if fk.VLIWs != 3 || fk.Gateways != 2 {
		t.Fatalf("feature VLIW/gateway = %d/%d", fk.VLIWs, fk.Gateways)
	}

	total := sw.Ledger().Total()
	if total.Stages != 3 {
		t.Fatalf("total stages = %d want 3 (union of {0,2,3})", total.Stages)
	}
	if total.SALUs != 3 {
		t.Fatalf("total SALUs = %d", total.SALUs)
	}
	if got := sw.Ledger().Feature("missing"); got != (Resources{}) {
		t.Fatalf("missing feature should be zero, got %+v", got)
	}
}

func TestLedgerStageSharing(t *testing.T) {
	// Two features in the same stage: total stage count must not double
	// (Table 2 note: "stage and VLIW can be shared by different features").
	sw := newTestSwitch(t)
	sw.SetFeature("A")
	mustReg(t, sw, "a", 5, 16, 8)
	sw.SetFeature("B")
	mustReg(t, sw, "b", 5, 16, 8)
	if got := sw.Ledger().Total().Stages; got != 1 {
		t.Fatalf("total stages = %d want 1", got)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	cap := DefaultCapacity()
	sw := NewWithCapacity(0, cap, DefaultCosts())
	for i := 0; i < cap.SALUsPerStage; i++ {
		mustReg(t, sw, "r", 0, 8, 8)
	}
	if _, err := AllocRegister[uint64](sw, "overflow", 0, 8, 8); err == nil {
		t.Fatal("expected SALU exhaustion error")
	}
	if _, err := AllocRegister[uint64](sw, "huge", 1, cap.SRAMKBPerStage*1024+1024, 1); err == nil {
		t.Fatal("expected SRAM exhaustion error")
	}
	if _, err := AllocRegister[uint64](sw, "badstage", cap.Stages, 8, 8); err == nil {
		t.Fatal("expected out-of-range stage error")
	}
}

func TestLedgerTableRendering(t *testing.T) {
	sw := newTestSwitch(t)
	sw.SetFeature("Signal")
	mustReg(t, sw, "s", 0, 8, 8)
	tbl := sw.Ledger().Table()
	if !strings.Contains(tbl, "Signal") || !strings.Contains(tbl, "Total") {
		t.Fatalf("table missing rows:\n%s", tbl)
	}
}

func TestUtilizationFractions(t *testing.T) {
	sw := newTestSwitch(t)
	sw.SetFeature("X")
	mustReg(t, sw, "r", 0, 8, 8)
	u := sw.Ledger().Utilization()
	for k, v := range u {
		if v < 0 || v > 1 {
			t.Fatalf("utilization %s = %f out of range", k, v)
		}
	}
	if u["SALU"] == 0 {
		t.Fatal("SALU utilization should be non-zero")
	}
}

func TestOSResetLinearInRegisters(t *testing.T) {
	c := DefaultCosts()
	d1 := c.OSResetTime(1, 4096)
	d2 := c.OSResetTime(2, 4096)
	if d1 <= c.OSBase {
		t.Fatalf("OS reset cost %v too small", d1)
	}
	if d2-c.OSBase != 2*(d1-c.OSBase) {
		t.Fatalf("OS reset not linear: %v vs %v", d1, d2)
	}
}

func TestRecircTimeIndependentOfRegisters(t *testing.T) {
	c := DefaultCosts()
	// One clear packet resets the same slot of every register per pass,
	// so the recirculation time depends only on slots and packet count.
	a := c.RecircTime(16, 65536)
	if a <= 0 {
		t.Fatal("recirc time must be positive")
	}
	if b := c.RecircTime(16, 65536); b != a {
		t.Fatal("recirc time not deterministic")
	}
	if c.RecircTime(4, 65536) <= a {
		t.Fatal("fewer packets must take longer")
	}
	if c.RecircTime(0, 100) != 0 || c.RecircTime(4, 0) != 0 {
		t.Fatal("degenerate inputs should cost zero")
	}
}

func TestRecircTimeMatchesPaperRegime(t *testing.T) {
	// Exp#8: 16 clear packets reset 64 K-entry registers in under 2 ms.
	c := DefaultCosts()
	if d := c.RecircTime(16, 65536); d > 2*time.Millisecond {
		t.Fatalf("OW-16 reset %v exceeds 2 ms", d)
	}
	// The OS path takes two to three orders of magnitude longer.
	if os := c.OSResetTime(4, 65536); os < 100*c.RecircTime(16, 65536) {
		t.Fatalf("OS/recirc gap too small: %v vs %v", os, c.RecircTime(16, 65536))
	}
}

func TestTouchBooksAccess(t *testing.T) {
	sw := newTestSwitch(t)
	reg := mustReg(t, sw, "r", 0, 8, 8)
	sw.SetProgram(func(p *Pass) {
		p.Touch(reg, 2)
		defer func() {
			if recover() == nil {
				t.Error("Touch did not enforce single access")
			}
		}()
		Read(p, reg, 2)
	})
	sw.Inject(&packet.Packet{})
}

// TestInjectZeroAlloc pins the per-packet pass at zero allocations, with an
// empty program and with none installed: the Pass and both emission buffers
// are the switch's own.
func TestInjectZeroAlloc(t *testing.T) {
	for name, program := range map[string]ProgramFunc{"empty program": func(*Pass) {}, "no program": nil} {
		sw := New(0)
		sw.SetProgram(program)
		pkt := &packet.Packet{}
		if allocs := testing.AllocsPerRun(1000, func() {
			if out := sw.Inject(pkt); len(out.Forward) != 1 || out.Forward[0] != pkt {
				t.Fatalf("%s: forward = %v", name, out.Forward)
			}
		}); allocs != 0 {
			t.Errorf("%s: Inject allocated %v per packet, want 0", name, allocs)
		}
	}
}

// TestOutputLifetime states the reuse rule by example: the next Inject
// overwrites the previous Output's slices, but never the packets they
// pointed to — a clone handed to the controller stays as emitted.
func TestOutputLifetime(t *testing.T) {
	sw := New(0)
	sw.SetProgram(func(p *Pass) {
		c := p.Pkt.Clone()
		c.OW.Flag = packet.OWTrigger
		c.OW.SubWindow = uint64(p.Pkt.Seq)
		c.OW.AFRs = []packet.AFR{{Seq: p.Pkt.Seq}}
		p.CloneToController(c)
	})
	kept := sw.Inject(&packet.Packet{Seq: 1}).ToController[0]
	second := sw.Inject(&packet.Packet{Seq: 2})
	if kept.OW.Flag != packet.OWTrigger || kept.OW.SubWindow != 1 || kept.Seq != 1 ||
		len(kept.OW.AFRs) != 1 || kept.OW.AFRs[0].Seq != 1 {
		t.Fatalf("clone from the first Inject was mutated by the second: %+v", kept)
	}
	if second.ToController[0] == kept || second.ToController[0].OW.SubWindow != 2 {
		t.Fatalf("second Inject emitted %+v", second.ToController[0])
	}
}

// TestInjectDropsBoundarySizedBuffers: a collection-style Inject that emits
// thousands of clones must not leave the switch holding them (or a slice
// that large) once the next Inject has run.
func TestInjectDropsBoundarySizedBuffers(t *testing.T) {
	const emitted = 5000
	sw := New(0)
	n := 0
	sw.SetProgram(func(p *Pass) {
		if p.Pkt.OW.Flag != packet.OWCollection {
			return
		}
		p.CloneToController(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR}})
		p.Emit(&packet.Packet{})
		if n++; n < emitted {
			p.Recirculate()
			return
		}
		p.Drop()
	})
	out := sw.Inject(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWCollection}})
	if len(out.ToController) != emitted || len(out.Forward) != emitted || out.Passes != emitted {
		t.Fatalf("collection emitted %d/%d in %d passes", len(out.ToController), len(out.Forward), out.Passes)
	}
	sw.Inject(&packet.Packet{})
	if c := cap(sw.pass.toController); c > retainCap {
		t.Errorf("switch kept a %d-entry controller buffer after the boundary, bound %d", c, retainCap)
	}
	if c := cap(sw.pass.forward); c > retainCap {
		t.Errorf("switch kept a %d-entry forward buffer after the boundary, bound %d", c, retainCap)
	}
	for _, buf := range [][]*packet.Packet{sw.pass.toController, sw.pass.forward} {
		for _, p := range buf[:cap(buf)] {
			if p != nil && p.OW.Flag == packet.OWAFR {
				t.Fatal("switch still references an AFR clone of the finished collection")
			}
		}
	}
	if sw.pass.Pkt != nil {
		t.Error("switch still references the injected packet")
	}
	// The caller's Output of the collection is untouched by the drop.
	if out.ToController[emitted-1] == nil || out.ToController[emitted-1].OW.Flag != packet.OWAFR {
		t.Error("the collection's own Output lost its packets")
	}
}
