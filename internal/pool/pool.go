// Package pool provides size-classed free lists for the per-sub-window
// AFR slices the controller shards accumulate routed records in. They
// churn at line rate, so per-record garbage — not the window algorithms —
// would be the first throughput wall (DESIGN.md, "Hot-path memory
// model").
//
// The free lists are explicit mutex-guarded stacks rather than sync.Pool:
// a GC cycle must not empty them, because the allocs/op regression gates
// pin the steady state at zero and a pool that refills after every GC
// would make those gates flake. Capacity is bounded per class, so a burst
// can never pin more than a fixed amount of memory.
//
// Ownership rules (enforced by the debug checks):
//
//   - A Get transfers ownership to the caller; the slice is theirs until
//     they Put it back or drop it (dropping leaks nothing — the GC takes
//     over — but defeats reuse).
//   - Put transfers ownership to the pool. The caller must not retain any
//     reference: the next Get may hand the same memory to another
//     goroutine. Putting the same slice twice is therefore corruption;
//     debug mode panics on it.
//   - Putting a slice that did not come from a Get is allowed (restored
//     snapshots feed their slices in), as long as the caller owned it.
//
// SetEnabled(false) turns the package into a pass-through (Get allocates
// fresh, Put discards), which is how the differential suite proves pooled
// and unpooled runs produce byte-identical windows.
package pool

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"omniwindow/internal/packet"
)

const (
	// minClassBits..maxClassBits bound the pooled size classes (powers of
	// two). Requests above the largest class fall through to plain make:
	// they are not hot-path sized.
	minClassBits = 6  // 64 records
	maxClassBits = 17 // 128 Ki records
	numClasses   = maxClassBits - minClassBits + 1

	// maxPerClass bounds each class's free list so a burst cannot pin
	// unbounded memory in the pool.
	maxPerClass = 256
)

var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns pooling on or off globally. Off, Get allocates fresh
// and Put discards — the unpooled baseline of the differential tests.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether pooling is on.
func Enabled() bool { return enabled.Load() }

// Counters is a snapshot of the pool's activity, for tests asserting that
// the steady state actually reuses (News stops growing once warm).
type Counters struct {
	Gets  int64 // buffers handed out
	Puts  int64 // buffers accepted back (retained or dropped)
	News  int64 // Gets served by a fresh allocation (pool miss)
	Drops int64 // Puts discarded (class full, oversized, or disabled)
}

var counters struct {
	gets, puts, news, drops atomic.Int64
}

// Stats snapshots the activity counters.
func Stats() Counters {
	return Counters{
		Gets:  counters.gets.Load(),
		Puts:  counters.puts.Load(),
		News:  counters.news.Load(),
		Drops: counters.drops.Load(),
	}
}

// classFor returns the smallest class whose capacity fits n, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
		if c >= numClasses {
			return -1
		}
	}
	return c
}

// classOf returns the largest class whose capacity is <= c (where a
// returned buffer still satisfies every Get of that class), or -1 when c
// is below the smallest class or above the largest (oversized buffers are
// dropped, not pinned).
func classOf(c int) int {
	if c < 1<<minClassBits || c > 1<<maxClassBits {
		return -1
	}
	k := numClasses - 1
	for c < 1<<(minClassBits+k) {
		k--
	}
	return k
}

// freelist is one size class's stack. A plain mutex-guarded stack, not a
// sync.Pool: GC must not drain it (see the package comment).
type freelist struct {
	mu   sync.Mutex
	free [][]packet.AFR
}

// get pops a buffer with cap >= 1<<(minClassBits+class), or nil.
func (fl *freelist) get() []packet.AFR {
	fl.mu.Lock()
	n := len(fl.free)
	if n == 0 {
		fl.mu.Unlock()
		return nil
	}
	b := fl.free[n-1]
	fl.free[n-1] = nil
	fl.free = fl.free[:n-1]
	fl.mu.Unlock()
	return b
}

// put pushes a buffer; reports whether it was retained.
func (fl *freelist) put(b []packet.AFR) bool {
	fl.mu.Lock()
	if len(fl.free) >= maxPerClass {
		fl.mu.Unlock()
		return false
	}
	fl.free = append(fl.free, b)
	fl.mu.Unlock()
	return true
}

var afrClasses [numClasses]freelist

// GetAFRs returns an empty AFR slice with capacity at least n, ready to
// append into.
func GetAFRs(n int) []packet.AFR {
	counters.gets.Add(1)
	if c := classFor(n); enabled.Load() && c >= 0 {
		if s := afrClasses[c].get(); s != nil {
			debugGet(afrID(s))
			return s[:0]
		}
		counters.news.Add(1)
		s := make([]packet.AFR, 0, 1<<(minClassBits+c))
		debugNew(afrID(s))
		return s
	}
	counters.news.Add(1)
	return make([]packet.AFR, 0, n)
}

// PutAFRs returns an AFR slice to its size class (nil is a no-op). The
// caller must not retain any reference to s afterwards.
func PutAFRs(s []packet.AFR) {
	counters.puts.Add(1)
	if cap(s) == 0 {
		return
	}
	c := classOf(cap(s))
	if !enabled.Load() || c < 0 {
		counters.drops.Add(1)
		return
	}
	retained := afrClasses[c].put(s[:0])
	if !retained {
		counters.drops.Add(1)
	}
	debugPut(afrID(s), retained)
}

// afrID identifies a slice by its backing array, stable across reslicing —
// what the debug double-put check keys on.
func afrID(s []packet.AFR) unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(s[:cap(s)]))
}

// Debug tracking: off by default (one atomic load on the hot path). On, a
// double Put panics immediately — the failure mode where two owners share
// one buffer is otherwise a heisenbug — and Outstanding counts buffers
// handed out but never returned, for leak assertions in tests.
var debugOn atomic.Bool

var dbg struct {
	mu    sync.Mutex
	live  map[unsafe.Pointer]bool // gotten, not yet put
	freed map[unsafe.Pointer]bool // resident in a free list
}

// SetDebug toggles leak/double-put tracking. Enabling resets the tracked
// state; meant for tests, not production (every Get/Put takes a lock).
func SetDebug(on bool) {
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	debugOn.Store(on)
	dbg.live = map[unsafe.Pointer]bool{}
	dbg.freed = map[unsafe.Pointer]bool{}
}

// Outstanding reports buffers handed out by Get and not yet Put while
// debug tracking was on — the leak count a test asserts to be zero after
// a balanced workload.
func Outstanding() int {
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	return len(dbg.live)
}

func debugNew(id unsafe.Pointer) {
	if !debugOn.Load() {
		return
	}
	dbg.mu.Lock()
	dbg.live[id] = true
	dbg.mu.Unlock()
}

func debugGet(id unsafe.Pointer) {
	if !debugOn.Load() {
		return
	}
	dbg.mu.Lock()
	delete(dbg.freed, id)
	dbg.live[id] = true
	dbg.mu.Unlock()
}

func debugPut(id unsafe.Pointer, retained bool) {
	if !debugOn.Load() {
		return
	}
	dbg.mu.Lock()
	defer dbg.mu.Unlock()
	if dbg.freed[id] {
		panic("pool: double put — buffer is already in the free list")
	}
	delete(dbg.live, id)
	if retained {
		dbg.freed[id] = true
	}
}
