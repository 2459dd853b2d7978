package rdma

import (
	"testing"

	"omniwindow/internal/afr"
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

func TestNICWriteAndFetchAdd(t *testing.T) {
	mr := NewMemoryRegion(2, 4, 10)
	nic := NewNIC(mr)
	base, _ := mr.AllocRow()
	if err := nic.Write(base+2, 42); err != nil {
		t.Fatal(err)
	}
	old, err := nic.FetchAdd(base+2, 8)
	if err != nil || old != 42 {
		t.Fatalf("fetch-add old = %d, %v", old, err)
	}
	row := mr.ReadRow(base)
	if row[2] != 50 {
		t.Fatalf("row = %v", row)
	}
	if nic.Writes != 1 || nic.FetchAdds != 1 {
		t.Fatalf("verb counts: %d writes %d fadds", nic.Writes, nic.FetchAdds)
	}
	if nic.PSN() != 2 {
		t.Fatalf("psn = %d", nic.PSN())
	}
	mr.ResetRow(base)
	if mr.ReadRow(base)[2] != 0 {
		t.Fatal("reset row kept value")
	}
}

func TestNICInvalidAddress(t *testing.T) {
	nic := NewNIC(NewMemoryRegion(1, 2, 4))
	if err := nic.Write(99, 1); err == nil {
		t.Fatal("invalid WRITE accepted")
	}
	if _, err := nic.FetchAdd(-1, 1); err == nil {
		t.Fatal("invalid FETCH_ADD accepted")
	}
}

func TestColdBufferAppendAndDrain(t *testing.T) {
	mr := NewMemoryRegion(1, 2, 3)
	nic := NewNIC(mr)
	for i := 0; i < 3; i++ {
		if err := nic.Append(rec(i, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nic.Append(rec(9, 0, 9)); err != ErrBufferFull {
		t.Fatalf("overflow error = %v", err)
	}
	got := nic.Drain()
	if len(got) != 3 {
		t.Fatalf("drained %d", len(got))
	}
	// Drained buffer accepts appends again.
	if err := nic.Append(rec(9, 0, 9)); err != nil {
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

func TestCollectorHotFrequencyAggregatesOnNIC(t *testing.T) {
	mr := NewMemoryRegion(4, 5, 16)
	nic := NewNIC(mr)
	mat := NewAddressMAT(4)
	base, _ := mr.AllocRow()
	mat.Insert(fk(1), base)
	c := NewCollector(mat, nic)

	// Five sub-windows of a hot key: the RNIC must sum them with
	// Fetch-and-Add, zero controller CPU.
	for sw := 0; sw < 5; sw++ {
		hot, err := c.Send(rec(1, sw, 10), afr.Frequency)
		if err != nil || !hot {
			t.Fatalf("sw %d: hot=%v err=%v", sw, hot, err)
		}
	}
	if got := mr.ReadRow(base)[0]; got != 50 {
		t.Fatalf("aggregated = %d want 50", got)
	}
	if nic.FetchAdds != 5 || nic.Appends != 0 {
		t.Fatalf("verbs: %d fadds %d appends", nic.FetchAdds, nic.Appends)
	}
}

func TestCollectorHotNonFrequencyGroupsByLane(t *testing.T) {
	mr := NewMemoryRegion(4, 5, 16)
	nic := NewNIC(mr)
	mat := NewAddressMAT(4)
	base, _ := mr.AllocRow()
	mat.Insert(fk(1), base)
	c := NewCollector(mat, nic)
	for sw := 0; sw < 5; sw++ {
		if _, err := c.Send(rec(1, sw, sw+1), afr.Max); err != nil {
			t.Fatal(err)
		}
	}
	row := mr.ReadRow(base)
	for sw := 0; sw < 5; sw++ {
		if row[sw] != uint64(sw+1) {
			t.Fatalf("lane %d = %d", sw, row[sw])
		}
	}
}

func TestCollectorColdKeyAppends(t *testing.T) {
	mr := NewMemoryRegion(1, 2, 16)
	nic := NewNIC(mr)
	c := NewCollector(NewAddressMAT(1), nic)
	hot, err := c.Send(rec(7, 0, 3), afr.Frequency)
	if err != nil || hot {
		t.Fatalf("cold send: hot=%v err=%v", hot, err)
	}
	got := nic.Drain()
	if len(got) != 1 || got[0].Key != fk(7) {
		t.Fatalf("drained = %v", got)
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
