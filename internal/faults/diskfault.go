package faults

import "errors"

// Injected disk-fault sentinels. The durable layer classifies against
// these (alongside the real syscall equivalents) to decide between
// bounded retry and immediate degraded-durability: an EIO is transient —
// the next attempt redraws its fate — while ENOSPC is a state, not an
// event, and retrying into a full disk is wasted work.
var (
	// ErrDiskEIO is a transient per-operation I/O failure (the injected
	// analogue of a device-level EIO).
	ErrDiskEIO = errors.New("faults: injected disk EIO")
	// ErrDiskENOSPC is a full-disk failure; it persists for as long as
	// the schedule's run of fixed ENOSPC operations does.
	ErrDiskENOSPC = errors.New("faults: injected ENOSPC")
)

// DiskSchedule describes the failure behaviour of the durable layer's
// storage path (internal/durable). Like CrashSchedule and RDMASchedule it
// is stateless and deterministic: every fault hashes (Seed, operation
// index) under its own salt, so enabling one fault kind never shifts
// another's schedule — and never shifts the crash or RDMA schedules
// either. Operation indices are issued by the durable FaultFS wrapper,
// one per file-data operation, so a retried write redraws its fate at a
// fresh index. The zero value (and a nil schedule) is a healthy disk.
type DiskSchedule struct {
	// Seed parameterizes every hash below.
	Seed uint64

	// WriteEIO is the probability a write operation fails with a
	// transient I/O error (no bytes reach the medium).
	WriteEIO float64
	// ReadEIO is the probability a read operation fails transiently.
	ReadEIO float64
	// ShortWrite is the probability a write tears: only a prefix of the
	// buffer reaches the medium before the failure is reported.
	ShortWrite float64
	// BitRot is the probability a write completes "successfully" but the
	// medium stores one flipped byte — silent corruption that only a
	// CRC re-read (the scrubber, or recovery) can detect.
	BitRot float64
	// SlowIO is the probability an operation completes correctly but
	// slowly; the latency is charged to the deployment's virtual-time
	// budget, never to wall clock.
	SlowIO float64
	// SlowIOLatency is the virtual latency of a slow operation in
	// nanoseconds; 0 defaults to 1ms.
	SlowIOLatency int64

	// ENOSPC fails matching write operations with a full-disk error. A
	// disk that fills up and is later cleaned lists the consecutive
	// operation indices of its full stretch in Fixed.
	ENOSPC Fault
}

// Distinct salts keep the per-kind hash streams independent.
const (
	saltWriteEIO   = 0x4449534B5745_01 // "DISKWE"
	saltReadEIO    = 0x4449534B5245_02 // "DISKRE"
	saltShortWrite = 0x4449534B5357_03 // "DISKSW"
	saltBitRot     = 0x4449534B4252_04 // "DISKBR"
	saltSlowIO     = 0x4449534B534C_05 // "DISKSL"
	saltENOSPC     = 0x4449534B4E53_06 // "DISKNS"
	saltRotSpot    = 0x4449534B5253_07 // "DISKRS"
)

// WriteEIOAt reports whether write operation op fails transiently.
// Nil-safe.
func (s *DiskSchedule) WriteEIOAt(op uint64) bool {
	return s != nil && hit(s.WriteEIO, s.Seed, saltWriteEIO, op)
}

// ReadEIOAt reports whether read operation op fails transiently.
// Nil-safe.
func (s *DiskSchedule) ReadEIOAt(op uint64) bool {
	return s != nil && hit(s.ReadEIO, s.Seed, saltReadEIO, op)
}

// ShortWriteAt reports whether write operation op tears. Nil-safe.
func (s *DiskSchedule) ShortWriteAt(op uint64) bool {
	return s != nil && hit(s.ShortWrite, s.Seed, saltShortWrite, op)
}

// BitRotAt reports whether write operation op silently corrupts one
// stored byte. Nil-safe.
func (s *DiskSchedule) BitRotAt(op uint64) bool {
	return s != nil && hit(s.BitRot, s.Seed, saltBitRot, op)
}

// BitRotSpot returns the deterministic corruption for operation op over
// an n-byte write: the byte index to damage and the non-zero XOR mask to
// damage it with.
func (s *DiskSchedule) BitRotSpot(op uint64, n int) (idx int, mask byte) {
	if n <= 0 {
		return 0, 1
	}
	h := mix(s.Seed, saltRotSpot, op)
	return int(h % uint64(n)), byte(1 << ((h >> 32) % 8))
}

// SlowIOAt reports whether operation op is slow; the second return is the
// virtual latency to charge. Nil-safe.
func (s *DiskSchedule) SlowIOAt(op uint64) (bool, int64) {
	if s == nil || !hit(s.SlowIO, s.Seed, saltSlowIO, op) {
		return false, 0
	}
	lat := s.SlowIOLatency
	if lat <= 0 {
		lat = 1_000_000 // 1ms
	}
	return true, lat
}

// ENOSPCAt reports whether write operation op fails with a full disk.
// Nil-safe.
func (s *DiskSchedule) ENOSPCAt(op uint64) bool {
	return s != nil && s.ENOSPC.at(s.Seed, saltENOSPC, op)
}
