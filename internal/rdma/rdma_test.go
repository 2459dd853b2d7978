package rdma

import (
	"testing"

	"omniwindow/internal/packet"
)

func fk(i int) packet.FlowKey { return packet.FlowKey{SrcIP: uint32(i), Proto: packet.ProtoTCP} }

func rec(key, sw, attr int) packet.AFR {
	return packet.AFR{Key: fk(key), SubWindow: uint64(sw), Attr: uint64(attr)}
}

func TestMemoryRegionRowAllocation(t *testing.T) {
	mr := NewMemoryRegion(2, 5, 10)
	b0, ok := mr.AllocRow()
	if !ok || b0 != 0 {
		t.Fatalf("first row = %d,%v", b0, ok)
	}
	b1, ok := mr.AllocRow()
	if !ok || b1 != 5 {
		t.Fatalf("second row = %d,%v", b1, ok)
	}
	if _, ok := mr.AllocRow(); ok {
		t.Fatal("allocation beyond capacity")
	}
	if mr.Lanes() != 5 {
		t.Fatalf("lanes = %d", mr.Lanes())
	}
}

func TestNICWrite(t *testing.T) {
	mr := NewMemoryRegion(2, 4, 10)
	nic := NewNIC(mr)
	base, _ := mr.AllocRow()
	if err := nic.Write(base+2, 42); err != nil {
		t.Fatal(err)
	}
	if got := mr.slots[base+2]; got != 42 {
		t.Fatalf("slot = %d want 42", got)
	}
	if nic.Writes != 1 {
		t.Fatalf("writes = %d", nic.Writes)
	}
	mr.ResetLane(base, 2)
	if mr.slots[base+2] != 0 {
		t.Fatal("reset lane kept value")
	}
}

func TestNICInvalidAddress(t *testing.T) {
	nic := NewNIC(NewMemoryRegion(1, 2, 4))
	for _, addr := range []int{-1, 2, 99} {
		if err := nic.Write(addr, 1); err == nil {
			t.Fatalf("invalid WRITE to %d accepted", addr)
		}
	}
}

// TestColdBufferAppendAndDrain: an append verb lands its run with one
// copy, as much of it as the ring has room for; Drain hands the ring over
// without a copy and rewinds it, so the drained slice is the ring itself,
// intact until the next append writes over it.
func TestColdBufferAppendAndDrain(t *testing.T) {
	mr := NewMemoryRegion(1, 2, 5)
	nic := NewNIC(mr)
	if off, n := nic.AppendRun([]packet.AFR{rec(0, 0, 0), rec(1, 0, 1), rec(2, 0, 2)}); off != 0 || n != 3 {
		t.Fatalf("first run landed %d at %d, want 3 at 0", n, off)
	}
	if off, n := nic.AppendRun([]packet.AFR{rec(3, 0, 3), rec(4, 0, 4), rec(5, 0, 5)}); off != 3 || n != 2 {
		t.Fatalf("second run landed %d at %d, want the 2-record prefix that fits at 3", n, off)
	}
	if nic.Room() != 0 {
		t.Fatalf("room = %d in a full ring", nic.Room())
	}
	late := []packet.AFR{rec(9, 0, 9)}
	if _, n := nic.AppendRun(late); n != 0 {
		t.Fatal("a full ring took a record")
	}
	if nic.Appends != 2 {
		t.Fatalf("appends = %d, want one per verb that landed", nic.Appends)
	}
	got := nic.Drain()
	if len(got) != 5 || got[4].Key != fk(4) {
		t.Fatalf("drained %v", got)
	}
	if nic.Room() != 5 {
		t.Fatalf("room = %d after the drain, want the whole ring", nic.Room())
	}
	// The drained slice is the ring: the next append lands over its head
	// and nowhere else.
	if off, n := nic.AppendRun(late); off != 0 || n != 1 {
		t.Fatalf("append after the drain landed %d at %d", n, off)
	}
	if got[0].Key != fk(9) || got[1].Key != fk(1) {
		t.Fatalf("ring after the next append = %v, want record 9 over record 0 only", got[:2])
	}
}

func TestAddressMAT(t *testing.T) {
	m := NewAddressMAT(2)
	if !m.Insert(fk(1), 0) || !m.Insert(fk(2), 8) {
		t.Fatal("insert failed")
	}
	if m.Insert(fk(3), 16) {
		t.Fatal("capacity not enforced")
	}
	if !m.Insert(fk(1), 24) {
		t.Fatal("update of existing key refused")
	}
	if b, ok := m.Lookup(fk(1)); !ok || b != 24 {
		t.Fatalf("lookup = %d,%v", b, ok)
	}
	m.Delete(fk(1))
	if _, ok := m.Lookup(fk(1)); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMemoryRegion(0, 1, 1) },
		func() { NewMemoryRegion(1, 0, 1) },
		func() { NewMemoryRegion(1, 1, 0) },
		func() { NewAddressMAT(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
