package main

import (
	"fmt"
	"syscall"
	"time"
)

// The sandbox shares its host: neighbours slow this machine down by 10 to
// 40% for a quarter of an hour at a time (see README.md, "Times are divided
// by a reference kernel"). The reference kernel is a fixed piece of work,
// independent of the program under test, timed right before and right
// after every trace generation and every replay of a run; the run's times
// are divided by how much slower than nominal its median kernel ran. About
// four fifths of the kernel is arithmetic on a buffer that stays in the
// first-level cache, which slows down when the processor itself is taken
// away or shared, and one fifth is random read-modify-writes over a table
// far larger than the private caches, which slows down when neighbours
// fill the shared cache and the memory bus. That is the mix that took most
// of the drift out of the workload that drifts most while adding little to
// the one that drifts least.
const (
	referenceTableSize = 64 << 20
	// referenceNominal is what the kernel takes on the machine this was
	// defined on when its neighbours are quiet: 85 ms of arithmetic, 20 ms
	// of memory. A reported time is what was measured, scaled to a machine
	// on which the kernel takes this long.
	referenceNominal = 105 * time.Millisecond
)

// The kernel's size; variables so that the tests can shrink it.
var (
	referenceHashSteps = 64 << 20
	referenceTouches   = 5 << 18
)

// referenceTable lives outside the Go heap, so that it changes neither the
// collector's pacing nor any heap figure of the program under test.
var referenceTable []byte

var referenceSink uint64

func initReference() error {
	t, err := syscall.Mmap(-1, 0, referenceTableSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("reference kernel table: %w", err)
	}
	referenceTable = t
	referenceKernel() // faults the table's pages in
	return nil
}

func referenceKernel() time.Duration {
	t0 := time.Now()
	var buf [64]byte
	h := uint64(14695981039346656037)
	for i := 0; i < referenceHashSteps/len(buf); i++ {
		buf[i%len(buf)] = byte(h)
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	x := h | 1
	for i := 0; i < referenceTouches; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		referenceTable[x%referenceTableSize] += byte(x)
	}
	referenceSink += x
	return time.Since(t0)
}

// machine collects the reference kernel's timings over a run.
type machine struct{ kernels []float64 }

// sample times the reference kernel once more.
func (m *machine) sample() { m.kernels = append(m.kernels, referenceKernel().Seconds()) }

// slowdown is how much slower than nominal the machine ran over the run:
// the median of the kernel's timings over its nominal time.
func (m *machine) slowdown() float64 { return median(m.kernels) / referenceNominal.Seconds() }
