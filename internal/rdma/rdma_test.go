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

func TestColdBufferAppendAndDrain(t *testing.T) {
	mr := NewMemoryRegion(1, 2, 3)
	nic := NewNIC(mr)
	for i := 0; i < 3; i++ {
		r := rec(i, 0, i)
		if err := nic.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	late := rec(9, 0, 9)
	if err := nic.Append(&late); err != ErrBufferFull {
		t.Fatalf("overflow error = %v", err)
	}
	got := nic.Drain()
	if len(got) != 3 {
		t.Fatalf("drained %d", len(got))
	}
	// Drained buffer accepts appends again.
	if err := nic.Append(&late); err != nil {
		t.Fatal(err)
	}
	// Drain result must not alias the live buffer.
	if got[0].Key != fk(0) {
		t.Fatalf("drain order wrong: %v", got[0].Key)
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
