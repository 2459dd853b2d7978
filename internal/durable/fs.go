// FS is the store's seam to the operating system. Production uses OSFS
// (thin os.* passthroughs); tests and chaos suites wrap it in FaultFS,
// which injects deterministic per-operation faults from a
// faults.DiskSchedule. Keeping the seam at the file-data level — writes,
// reads, renames — puts the interesting failure domain (the medium) under
// test while leaving directory metadata operations clean, so a faulty
// disk can never prevent the store from even enumerating its segments.
package durable

import (
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"

	"omniwindow/internal/faults"
)

// File is the writable handle the store appends WAL frames through.
type File interface {
	Write(p []byte) (int, error)
	Close() error
}

// FS abstracts every file operation the store performs.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// FaultFS wraps a base FS and injects faults from a DiskSchedule. Each
// file-data operation consumes one monotonically increasing operation
// index, so a retried operation redraws its fate rather than replaying
// it — exactly how a real transient fault behaves. Injected slow-IO
// latency accumulates virtually (never sleeps) and is drained by
// TakeSlowWait for the deployment to charge against its collection
// budget. Directory operations (MkdirAll, ReadDir, Remove) pass through
// unfaulted.
type FaultFS struct {
	base  FS
	sched *faults.DiskSchedule
	op    atomic.Uint64
	slow  atomic.Int64
	fail  atomic.Uint64
}

// NewFaultFS wraps base with sched. A nil sched injects nothing.
func NewFaultFS(base FS, sched *faults.DiskSchedule) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{base: base, sched: sched}
}

// TakeSlowWait returns and resets the accumulated virtual slow-IO
// latency in nanoseconds.
func (f *FaultFS) TakeSlowWait() int64 { return f.slow.Swap(0) }

// Ops returns how many fault-drawable operations have run (test hook).
func (f *FaultFS) Ops() uint64 { return f.op.Load() }

// Failed returns how many writes and renames it failed (test hook).
func (f *FaultFS) Failed() uint64 { return f.fail.Load() }

func (f *FaultFS) next() uint64 {
	op := f.op.Add(1) - 1
	if slow, lat := f.sched.SlowIOAt(op); slow {
		f.slow.Add(lat)
	}
	return op
}

func (f *FaultFS) Create(name string) (File, error) {
	base, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: base, fs: f, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	op := f.next()
	if f.sched.ReadEIOAt(op) {
		return nil, fmt.Errorf("read %s: %w", name, faults.ErrDiskEIO)
	}
	return f.base.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	_, err := f.write(name, data, func(p []byte) (int, error) {
		return len(p), f.base.WriteFile(name, p, perm)
	})
	return err
}

// write is the one write-fault ladder, shared by whole-file writes and
// segment appends: it draws the next operation's fate and lands p (or
// what the fault leaves of it) through land.
func (f *FaultFS) write(name string, p []byte, land func([]byte) (int, error)) (int, error) {
	op := f.next()
	switch {
	case f.sched.ENOSPCAt(op):
		return 0, fmt.Errorf("write %s: %w", name, faults.ErrDiskENOSPC)
	case f.sched.WriteEIOAt(op):
		f.fail.Add(1)
		return 0, fmt.Errorf("write %s: %w", name, faults.ErrDiskEIO)
	case f.sched.ShortWriteAt(op) && len(p) > 1:
		// The torn prefix lands; the failure is reported.
		f.fail.Add(1)
		n, err := land(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("write %s: torn: %w", name, faults.ErrDiskEIO)
	case f.sched.BitRotAt(op) && len(p) > 0:
		// The write "succeeds" but the medium stores one flipped byte —
		// only a CRC re-read can tell. Allocation happens only on the
		// fault path; the clean path below stays zero-alloc.
		idx, mask := f.sched.BitRotSpot(op, len(p))
		rotted := append([]byte(nil), p...)
		rotted[idx] ^= mask
		if _, err := land(rotted); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return land(p)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	op := f.next()
	if f.sched.WriteEIOAt(op) {
		f.fail.Add(1)
		return fmt.Errorf("rename %s: %w", oldpath, faults.ErrDiskEIO)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.base.Remove(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.base.ReadDir(name) }

// faultFile injects write faults on an open segment handle.
type faultFile struct {
	f    File
	fs   *FaultFS
	name string
}

func (w *faultFile) Write(p []byte) (int, error) { return w.fs.write(w.name, p, w.f.Write) }

func (w *faultFile) Close() error { return w.f.Close() }
