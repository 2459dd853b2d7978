package controller

import (
	"fmt"
	"math"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/pool"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// These tests pin the pooled hot path at zero steady-state allocations
// per operation, mirroring the obs package's no-op pins: once the pool
// classes, shard pending slices, dedup bitset and ingest scratch are
// warm, decoding a frame and ingesting its records must produce no
// garbage at all. A regression here is a GC-pressure regression
// proportional to traffic, which is exactly what the pooling layer
// exists to prevent.
//
// Priming strategy: pool size classes are powers of two, so one large
// batch on the measured sub-window leaves every shard's pending slice
// with append slack far beyond what the measured runs add, and one high
// sequence number sizes the dedup bitset so measured (lower) sequences
// never grow its word array. testing.AllocsPerRun's own warm-up call
// covers the remaining first-touch map entries.

// allocPrime floods the controller with one large distinct-seq batch on
// sub-window 0, pre-sizing shard pending slices and the dedup bitset.
// Primed seqs live in [primeBase, primeBase+n); measured seqs must stay
// below primeBase.
const allocPrimeBase = 1 << 20

func allocPrime(c *Controller, n int) {
	recs := make([]packet.AFR, n)
	for i := range recs {
		recs[i] = packet.AFR{Key: fk(i), SubWindow: 0, Attr: 1, Seq: uint32(allocPrimeBase + i)}
	}
	c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}})
}

func newAllocController() *Controller {
	return New(Config{
		Plan: window.Tumbling(8), Kind: afr.Frequency, Threshold: 1 << 62,
		Shards: 4,
	})
}

// TestDecodeIngestZeroAlloc pins the full collector worker loop body —
// wire.DecodeInto into a long-lived packet, then Controller.Receive — at
// zero allocations per frame in the pooled steady state.
func TestDecodeIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	pool.SetEnabled(true)
	t.Cleanup(func() { pool.SetEnabled(true) })

	const (
		batch = 16
		runs  = 500
	)
	c := newAllocController()
	allocPrime(c, 72_000) // ~18k/shard -> 32k-cap pending slices

	// Pre-encode one frame per run, each with fresh sequence numbers (all
	// below the primed range) so every measured record takes the admit
	// path, not the duplicate path.
	frames := make([][]byte, runs+1)
	seq := uint32(0)
	for i := range frames {
		recs := make([]packet.AFR, batch)
		for j := range recs {
			recs[j] = packet.AFR{Key: fk(int(seq)), SubWindow: 0, Attr: 1, Seq: seq}
			seq++
		}
		enc, err := wire.Encode(nil, &packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = enc
	}

	var p packet.Packet
	var decodeErr error
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := wire.DecodeInto(&p, frames[i%len(frames)]); err != nil {
			decodeErr = err
			return
		}
		i++
		c.Receive(&p)
	})
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if allocs != 0 {
		t.Fatalf("decode→ingest allocated %v per frame in steady state, want 0", allocs)
	}
}

// TestIngestAFRsZeroAlloc pins the direct (RDMA-path) batch ingest at
// zero allocations per batch in the pooled steady state.
func TestIngestAFRsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	pool.SetEnabled(true)
	t.Cleanup(func() { pool.SetEnabled(true) })

	const (
		batch = 16
		runs  = 500
	)
	c := newAllocController()
	allocPrime(c, 72_000)

	batches := make([][]packet.AFR, runs+1)
	seq := uint32(0)
	for i := range batches {
		recs := make([]packet.AFR, batch)
		for j := range recs {
			recs[j] = packet.AFR{Key: fk(int(seq)), SubWindow: 0, Attr: 1, Seq: seq}
			seq++
		}
		batches[i] = recs
	}

	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.IngestAFRs(batches[i%len(batches)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("IngestAFRs allocated %v per batch in steady state, want 0", allocs)
	}
}

// TestFinishSteadyStateAllocs pins the columnar table's steady state: once
// a sliding plan's ring of columns, the row storage and the free list are
// warm, ingesting a sub-window of churning keys (four fifths of them new,
// taking rows the last retire freed) and finishing it — O2 fold, O3 merge,
// O4 scan, O5 retire — allocates a small constant per call whatever the
// number of AFRs: per-sub-window bookkeeping (the ledger record and its
// dedup bitset, OpTimes, the returned window), nothing per record. The
// non-invertible kinds run too, so retire's re-fold path is covered as
// well as its subtraction path.
func TestFinishSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	pool.SetEnabled(true)
	t.Cleanup(func() { pool.SetEnabled(true) })

	// Measured: 9-10 at one shard, 18-19 at four (a goroutine per shard
	// per finish: the single pass), 22 with 40 000 flows at four — the
	// same as before folds ahead existed: their starts allocate nothing.
	const perCall = 24
	for _, kind := range []afr.Kind{afr.Frequency, afr.Max, afr.Min, afr.Distinction} {
		for _, shards := range []int{1, 4} {
			// 40 000 flows put 10 000 records of the sub-window finishing
			// next in each of four shards: folds ahead start in the ingest,
			// through the shard's prebuilt foldFn.
			flowCounts := []int{2000, 8000}
			if shards > 1 {
				flowCounts = append(flowCounts, 40_000)
			}
			for _, flows := range flowCounts {
				t.Run(fmt.Sprintf("%v/shards%d/flows%d", kind, shards, flows), func(t *testing.T) {
					c := New(Config{
						Plan: window.SlidingPlan(5, 1), Kind: kind,
						Threshold: math.MaxUint64, Shards: shards,
					})
					recs := make([]packet.AFR, flows)
					var summ []packet.Summary
					if kind == afr.Distinction {
						summ = make([]packet.Summary, flows)
					}
					sw := uint64(0)
					windows := 0
					step := func() {
						for i := range recs {
							// A fifth of the keys persist (present in every live
							// column: retire re-folds them); the rest churn.
							id := i
							if i%5 != 0 {
								id = int(sw)*flows + i
							}
							recs[i] = packet.AFR{Key: fk(id), SubWindow: sw, Attr: uint64(i%7 + 1), Seq: uint32(i)}
							if summ != nil {
								summ[i] = packet.Summary{1 << (sw % 64), uint64(i)}
							}
						}
						c.IngestRecords(recs, summ)
						windows += len(c.FinishSubWindow(sw))
						sw++
					}
					for i := 0; i < 12; i++ {
						step()
					}
					windows = 0
					allocs := testing.AllocsPerRun(10, step)
					if windows != 11 {
						t.Fatalf("steady state emitted %d windows in 11 calls", windows)
					}
					// Four sub-windows stay live after each retire.
					if want := flows/5 + 4*(flows-flows/5); c.TableSize() != want {
						t.Fatalf("TableSize %d, want %d live rows", c.TableSize(), want)
					}
					t.Logf("%.1f allocs per IngestAFRs+FinishSubWindow of %d AFRs", allocs, flows)
					if allocs > perCall {
						t.Fatalf("IngestAFRs+FinishSubWindow allocated %.1f per call of %d AFRs, want <= %d whatever the AFR count", allocs, flows, perCall)
					}
				})
			}
		}
	}
}

// TestBatchSizeDifferential: the batched ingest path must be a pure
// performance change — record-at-a-time, whole-batch, packet-sized
// chunks, and pooling on vs off all yield identical window results and
// reliability accounting for the same record stream.
func TestBatchSizeDifferential(t *testing.T) {
	const (
		flows = 500
		subs  = 4
	)
	stream := make([]packet.AFR, 0, flows*subs)
	for sw := 0; sw < subs; sw++ {
		for f := 0; f < flows; f++ {
			stream = append(stream, packet.AFR{
				Key: fk(f % 97), SubWindow: uint64(sw),
				Attr: uint64(f%7 + 1), Seq: uint32(sw*flows + f),
			})
		}
	}

	run := func(pooled bool, chunk int) ([]WindowResult, []string) {
		pool.SetEnabled(pooled)
		defer pool.SetEnabled(true)
		c := New(Config{
			Plan: window.Tumbling(2), Kind: afr.Frequency, Threshold: 40,
			Shards: 4, CaptureValues: true,
		})
		for at := 0; at < len(stream); at += chunk {
			end := at + chunk
			if end > len(stream) {
				end = len(stream)
			}
			c.IngestAFRs(stream[at:end])
		}
		var out []WindowResult
		var rels []string
		for sw := 0; sw < subs; sw++ {
			out = append(out, c.FinishSubWindow(uint64(sw))...)
			rels = append(rels, fmt.Sprintf("%+v", c.Reliability(uint64(sw))))
		}
		return out, rels
	}

	baseRes, baseRel := run(true, len(stream))
	if len(baseRes) == 0 {
		t.Fatal("baseline produced no windows")
	}
	variants := []struct {
		name   string
		pooled bool
		chunk  int
	}{
		{"pooled/chunk=1", true, 1},
		{"pooled/chunk=32", true, 32},
		{"unpooled/chunk=1", false, 1},
		{"unpooled/chunk=32", false, 32},
		{"unpooled/whole", false, len(stream)},
	}
	for _, v := range variants {
		res, rel := run(v.pooled, v.chunk)
		if err := windowsEqual(baseRes, res); err != nil {
			t.Fatalf("%s diverged from baseline: %v", v.name, err)
		}
		for i := range rel {
			if rel[i] != baseRel[i] {
				t.Fatalf("%s reliability[%d] = %s, baseline %s", v.name, i, rel[i], baseRel[i])
			}
		}
	}
}

// windowsEqual compares two result sequences structurally and reports
// the first difference.
func windowsEqual(a, b []WindowResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("window count %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
		if x != y {
			return fmt.Errorf("window %d:\n  %s\nvs\n  %s", i, x, y)
		}
	}
	return nil
}
