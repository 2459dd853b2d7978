package faults

import "testing"

// TestSchedulesGolden pins the VALUES of every stateless schedule
// predicate: one 64-bit mask per (predicate, seed), bit i = the answer at
// input i. The other tests in this package check determinism and stream
// independence, never values — and every chaos suite's pinned counts
// depend on the values. The masks were read off the commit before the
// schedules were moved onto one shared draw, the Partition row when the
// partition kinds merged into Cut; a refactor of the hashing must leave
// them untouched.
func TestSchedulesGolden(t *testing.T) {
	const p = 0.3
	fixed := []uint64{5, 40}
	type row struct {
		name string
		at   func(seed, x uint64) bool
		want [2]uint64 // seeds 1 and 0xC0FFEE
	}
	rdma := func(seed uint64) *RDMASchedule {
		return &RDMASchedule{Seed: seed, VerbError: p, PSNDrop: p,
			QPError:      Fault{Prob: p, Fixed: fixed},
			MRInvalidate: Fault{Prob: p},
			Outage:       Fault{Fixed: []uint64{7, 8, 9}}}
	}
	disk := func(seed uint64) *DiskSchedule {
		return &DiskSchedule{Seed: seed, WriteEIO: p, ReadEIO: p, ShortWrite: p, BitRot: p,
			SlowIO: p, ENOSPC: Fault{Prob: p, Fixed: []uint64{20, 21, 22, 23}}}
	}
	part := func(seed uint64) *PartitionSchedule {
		return &PartitionSchedule{Seed: seed, Cut: Fault{Prob: p, Fixed: []uint64{30, 31}}}
	}
	rows := []row{
		{"Crash.At", func(s, x uint64) bool { return CrashSchedule{Seed: s, Fault: Fault{Prob: p, Fixed: fixed}}.At(x) },
			[2]uint64{0xb4214108c06089e1, 0x1122cb00c00e4138}},
		{"RDMA.VerbErrorAt/0", func(s, x uint64) bool { return rdma(s).VerbErrorAt(x, 0) },
			[2]uint64{0x170111462c601468, 0x1cc04a1001250822}},
		{"RDMA.VerbErrorAt/2", func(s, x uint64) bool { return rdma(s).VerbErrorAt(x, 2) },
			[2]uint64{0x12c5080270594716, 0x885488219609e8c0}},
		{"RDMA.PSNDropAt/0", func(s, x uint64) bool { return rdma(s).PSNDropAt(x, 0) },
			[2]uint64{0x2160050c0c1c20a2, 0x8091908e38054083}},
		{"RDMA.PSNDropAt/1", func(s, x uint64) bool { return rdma(s).PSNDropAt(x, 1) },
			[2]uint64{0x9b4040ec294cc080, 0xaa42892044000808}},
		{"RDMA.QPErrorAt", func(s, x uint64) bool { return rdma(s).QPErrorAt(x) },
			[2]uint64{0xcc41010014000233, 0x9380170c80800036}},
		{"RDMA.MRInvalidateAt", func(s, x uint64) bool { return rdma(s).MRInvalidateAt(x) },
			[2]uint64{0x510c8e1090008d18, 0xb28221958d6a0012}},
		{"RDMA.OutageAt", func(s, x uint64) bool { return rdma(s).OutageAt(x) },
			[2]uint64{0x380, 0x380}},
		{"Disk.WriteEIOAt", func(s, x uint64) bool { return disk(s).WriteEIOAt(x) },
			[2]uint64{0x28923d0188005b30, 0x15c01140c00040a8}},
		{"Disk.ReadEIOAt", func(s, x uint64) bool { return disk(s).ReadEIOAt(x) },
			[2]uint64{0x6cd61401001402c0, 0x04132088242c1004}},
		{"Disk.ShortWriteAt", func(s, x uint64) bool { return disk(s).ShortWriteAt(x) },
			[2]uint64{0x84609010a0591505, 0x0c3a694100127502}},
		{"Disk.BitRotAt", func(s, x uint64) bool { return disk(s).BitRotAt(x) },
			[2]uint64{0xb950419102298894, 0x2495296493a8102c}},
		{"Disk.BitRotSpot", func(s, x uint64) bool {
			idx, mask := disk(s).BitRotSpot(x, 4096)
			return (idx^int(mask))&1 == 1
		}, [2]uint64{0x1426fee41c0b97a2, 0xb665e3169abe5f02}},
		{"Disk.SlowIOAt", func(s, x uint64) bool { ok, _ := disk(s).SlowIOAt(x); return ok },
			[2]uint64{0x2a0804a05051862c, 0x10484014045683c0}},
		{"Disk.ENOSPCAt", func(s, x uint64) bool { return disk(s).ENOSPCAt(x) },
			[2]uint64{0x9288648423f50184, 0x0964049606f00c03}},
		{"Partition.RenewCut", func(s, x uint64) bool { return part(s).RenewCut(x) },
			[2]uint64{0x10ab0415c0412423, 0x89210f2cd4200b40}},
	}
	for _, r := range rows {
		for i, seed := range []uint64{1, 0xC0FFEE} {
			var got uint64
			for x := uint64(0); x < 64; x++ {
				if r.at(seed, x) {
					got |= 1 << x
				}
			}
			if got != r.want[i] {
				t.Errorf("%s seed %#x: mask %#016x, want %#016x", r.name, seed, got, r.want[i])
			}
		}
	}
	// BitRotSpot's two outputs in full, at a few operations.
	for _, c := range []struct {
		op   uint64
		idx  int
		mask byte
	}{{0, 3455, 0x01}, {1, 2569, 0x40}, {63, 556, 0x10}} {
		if idx, mask := disk(1).BitRotSpot(c.op, 4096); idx != c.idx || mask != c.mask {
			t.Errorf("BitRotSpot(%d, 4096) = (%d, %#02x), want (%d, %#02x)", c.op, idx, mask, c.idx, c.mask)
		}
	}
}
