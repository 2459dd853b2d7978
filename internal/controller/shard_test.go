package controller

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// randomKey draws a flow key with enough entropy to spread across shards.
func randomKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Intn(1 << 16)),
		DstPort: uint16(rng.Intn(1 << 16)),
		Proto:   packet.ProtoTCP,
	}
}

// shardedTrace builds a deterministic multi-sub-window AFR stream with
// duplicates sprinkled in (same seq re-delivered) so dedup is exercised.
func shardedTrace(seed int64, subWindows, flowsPerSub int) [][]packet.AFR {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]packet.FlowKey, flowsPerSub*2)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	batches := make([][]packet.AFR, subWindows)
	for sw := range batches {
		for i := 0; i < flowsPerSub; i++ {
			r := packet.AFR{
				Key:       keys[rng.Intn(len(keys))],
				SubWindow: uint64(sw),
				Attr:      uint64(rng.Intn(100) + 1),
				Seq:       uint32(i),
			}
			batches[sw] = append(batches[sw], r)
			if rng.Intn(10) == 0 {
				batches[sw] = append(batches[sw], r) // duplicate delivery
			}
		}
	}
	return batches
}

// TestShardedDeterminism: FinishSubWindow output must be identical for
// Shards=1 (the exact sequential controller) and Shards=8 on the same
// trace, across kinds and plans — the fold is a deterministic sorted
// merge, so sharding must never change results.
func TestShardedDeterminism(t *testing.T) {
	kinds := []afr.Kind{afr.Frequency, afr.Max, afr.Min, afr.Existence}
	plans := []window.Plan{window.Tumbling(2), window.SlidingPlan(3, 1), window.SlidingPlan(4, 2)}
	for ki, kind := range kinds {
		for pi, plan := range plans {
			batches := shardedTrace(int64(ki*10+pi), 8, 300)
			seq := New(Config{Plan: plan, Kind: kind, Threshold: 150, CaptureValues: true, Shards: 1})
			par := New(Config{Plan: plan, Kind: kind, Threshold: 150, CaptureValues: true, Shards: 8})
			if seq.Shards() != 1 || par.Shards() != 8 {
				t.Fatalf("shard counts = %d, %d", seq.Shards(), par.Shards())
			}
			for sw, recs := range batches {
				seq.IngestAFRs(recs)
				par.IngestAFRs(recs)
				got := par.FinishSubWindow(uint64(sw))
				want := seq.FinishSubWindow(uint64(sw))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("kind %v plan %+v sw %d: sharded output diverged\n got %+v\nwant %+v",
						kind, plan, sw, got, want)
				}
				if got, want := par.TableSize(), seq.TableSize(); got != want {
					t.Fatalf("table size diverged: %d vs %d", got, want)
				}
			}
		}
	}
}

// TestConcurrentIngest hammers IngestAFRs and Receive from many goroutines
// (run under -race by the CI race job); the merged window must account for
// every unique sequence exactly once. The records are of the sub-window
// that finishes next, about 3 K a shard, so folds ahead run beside the
// ingest, and a reader takes cuts and TableSize all the while: neither
// may show the folded-ahead column.
func TestConcurrentIngest(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1500
	)
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 1, CaptureValues: true, Shards: 4})
	c.FinishSubWindow(0)
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, live := c.TableSize(), c.ExportState().Live; n != 0 || len(live) != 0 {
				t.Errorf("during ingest: TableSize %d, live %v; want an empty table", n, live)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				r := packet.AFR{
					Key:       packet.FlowKey{SrcIP: uint32(g*perG + i), DstPort: 443, Proto: packet.ProtoTCP},
					SubWindow: 1,
					Attr:      7,
					Seq:       uint32(g*perG + i),
				}
				if rng.Intn(2) == 0 {
					c.IngestAFRs([]packet.AFR{r, r}) // duplicate in-batch
				} else {
					c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: []packet.AFR{r}}})
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-read
	res := c.FinishSubWindow(1)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if len(res[0].Values) != goroutines*perG {
		t.Fatalf("flows = %d want %d", len(res[0].Values), goroutines*perG)
	}
	for k, v := range res[0].Values {
		if v != 7 {
			t.Fatalf("flow %v merged %d want 7 (lost or double-counted)", k, v)
		}
	}
}

// TestIngestDuringFinish overlaps ingest for the next sub-window with
// assembly of the current one; no record may be lost or attributed to the
// wrong sub-window. Sub-window 1 becomes the one that finishes next while
// it arrives, about 3 K records a shard, so its folds ahead start mid-way.
func TestIngestDuringFinish(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 1, CaptureValues: true, Shards: 4})
	const flows = 12_000
	for i := 0; i < flows; i++ {
		c.IngestAFRs([]packet.AFR{{
			Key: packet.FlowKey{SrcIP: uint32(i), Proto: packet.ProtoTCP}, SubWindow: 0, Attr: 1, Seq: uint32(i),
		}})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flows; i++ {
			c.IngestAFRs([]packet.AFR{{
				Key: packet.FlowKey{SrcIP: uint32(i), Proto: packet.ProtoTCP}, SubWindow: 1, Attr: 1, Seq: uint32(i),
			}})
		}
	}()
	res0 := c.FinishSubWindow(0)
	<-done
	res1 := c.FinishSubWindow(1)
	if len(res0) != 1 || len(res0[0].Values) != flows {
		t.Fatalf("window 0 flows = %d want %d", len(res0[0].Values), flows)
	}
	if len(res1) != 1 || len(res1[0].Values) != flows {
		t.Fatalf("window 1 flows = %d want %d", len(res1[0].Values), flows)
	}
}

// TestNewWithError rejects invalid plans as errors, while New preserves
// the panic contract for programmatic construction.
func TestNewWithError(t *testing.T) {
	if _, err := NewWithError(Config{Plan: window.Plan{Size: 0, Slide: 1}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
	c, err := NewWithError(Config{Plan: window.Tumbling(2), Kind: afr.Frequency, Shards: 3})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if c.Shards() != 3 {
		t.Fatalf("shards = %d want 3", c.Shards())
	}
	// Shards <= 0 defaults to a positive count.
	c = New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency})
	if c.Shards() < 1 {
		t.Fatalf("default shards = %d", c.Shards())
	}
}

// TestShardedOpTimes: per-shard durations must aggregate into the
// sub-window's OpTimes even when work is spread across workers.
func TestShardedOpTimes(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(2, 1), Kind: afr.Frequency, Threshold: 1, Shards: 4})
	for sw := 0; sw < 3; sw++ {
		recs := make([]packet.AFR, 500)
		for i := range recs {
			recs[i] = packet.AFR{Key: packet.FlowKey{SrcIP: uint32(i)}, SubWindow: uint64(sw), Attr: 1, Seq: uint32(i)}
		}
		c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}})
		c.FinishSubWindow(uint64(sw))
	}
	t2 := c.Times(2)
	if t2.Collect <= 0 || t2.Insert <= 0 || t2.Merge <= 0 || t2.Process <= 0 || t2.Evict <= 0 {
		t.Fatalf("missing aggregated timings: %+v", t2)
	}
}
