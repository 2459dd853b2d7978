package omniwindow

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"omniwindow/internal/durable"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
)

// TestBoundaryGolden holds the boundary pipeline to ABSOLUTE values. Every
// chaos suite compares a faulted run to a fault-free run of the same code,
// so a refactor that moved both the same way would pass them all; this
// test runs one spilling trace (batchTrace over spillTracker's 200-key
// array) through each arm of the boundary — packet, RDMA, durable, both,
// crash failover, partition takeover, disk faults, and the two recovery
// loops under loss — and pins a digest of Results(), Stats() and the trace
// ring's (stage, sub-window, shard, value) sequence. The digests were read
// off the 232-line collect before it was split into phases: a change of
// phase order, of a flush point, of a fault draw or of a virtual-time
// charge moves at least one of them.
func TestBoundaryGolden(t *testing.T) {
	cases := []struct {
		name      string
		want      string
		mutate    func(*Config)
		durable   bool   // run on a checkpoint directory
		loss      bool   // drop every third AFR packet before delivery
		restartAt uint64 // the store dies in this boundary's checkpoint; digest the restart, which replays it from the WAL
	}{
		{name: "packet", want: "1a831c2811b2981e"},
		{name: "packet+loss", want: "65b321d3f40711d3", loss: true, mutate: func(c *Config) {
			c.plan.afrFaults = faults.New(faults.Config{Seed: 1, Drop: 0.10, Duplicate: 0.20, MaxDuplicates: 2})
		}},
		{name: "rdma", want: "eeea3710a6f71bc0", mutate: func(c *Config) { c.RDMA = true }},
		{name: "rdma+faults", want: "06427babfef04905", mutate: func(c *Config) {
			c.RDMA = true
			c.plan.rdmaReplayDepth = 256
			c.plan.retry = fastRetry(2)
			c.plan.rdmaFaults = &faults.RDMASchedule{Seed: 1, VerbError: 0.15, PSNDrop: 0.15,
				QPError:      faults.Fault{Prob: 0.3},
				MRInvalidate: faults.Fault{Prob: 0.3}}
		}},
		{name: "durable", want: "b9f1abffeb82f031", durable: true},
		{name: "rdma+durable", want: "012f2150f5dd773b", durable: true, mutate: func(c *Config) { c.RDMA = true }},
		{name: "standby+crash", want: "22b2db4e53053484", durable: true, mutate: func(c *Config) {
			c.Standby = true
			c.plan.crash = crashes(2)
		}},
		{name: "standby+partition", want: "18486560fc239f27", durable: true, mutate: func(c *Config) {
			c.Standby = true
			c.plan.leaseTTL = 170 * time.Millisecond
			c.plan.partition = &faults.PartitionSchedule{Seed: 3, Cut: faults.Fault{Fixed: []uint64{1, 2}}}
		}},
		{name: "disk-faults", want: "5179beb7e4867562", durable: true, mutate: func(c *Config) {
			c.plan.durable.FS = durable.NewFaultFS(nil, &faults.DiskSchedule{Seed: 7, WriteEIO: 0.10, ShortWrite: 0.05,
				BitRot: 0.02, SlowIO: 0.10, ENOSPC: faults.Fault{Fixed: []uint64{25, 26}}})
			c.plan.durable.RetryLimit = 1
		}},
		{name: "crash-restart", want: "502dbdbe1a3b67f6", durable: true, restartAt: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			config := func(dir string) Config {
				return batchConfig(func(c *Config) {
					spillTracker(c)
					c.Obs = reg
					if tc.durable {
						c.CheckpointDir = dir
					}
					if tc.mutate != nil {
						tc.mutate(c)
					}
					if tc.loss {
						c.plan.afrFaults = &everyThird{next: c.plan.afrFaults}
					}
				})
			}
			var d *Deployment
			if tc.restartAt > 0 {
				d = crashCase{
					config: config, pkts: batchTrace(), b: tc.restartAt, point: uncommitted,
					between: func(*Deployment) { reg = obs.NewRegistry() },
				}.run(t).d2
			} else {
				d = newDisk(t, config(t.TempDir()))
				d.RunFor(batchTrace(), 500*ms)
				if err := d.CloseDurability(); err != nil {
					t.Fatal(err)
				}
			}
			st := d.Stats()
			subWindows := 5
			if tc.restartAt > 0 {
				subWindows = 4 - int(tc.restartAt) // the second incarnation's share
			}
			if st.Spills == 0 || st.SubWindows != subWindows || len(d.Results()) == 0 {
				t.Fatalf("not the spilling five-sub-window run: %+v", st)
			}
			results, stats, ring := fmt.Sprintf("%+v", d.Results()), fmt.Sprintf("%+v", st), ringSequence(reg)
			got := fmt.Sprintf("%016x", digest64(results, stats, ring))
			if got != tc.want {
				t.Errorf("digest %s, want %s (results %016x, stats %016x, ring %016x)\nstats: %s\nring: %s",
					got, tc.want, digest64(results), digest64(stats), digest64(ring), stats, ring)
			}
		})
	}
}

// ringSequence renders the trace ring as its (stage, sub-window, shard,
// value) sequence. The two stages whose value is a wall-clock duration
// keep their place in the order and drop the value.
func ringSequence(reg *obs.Registry) string {
	var b strings.Builder
	for _, e := range reg.Ring(0).Snapshot() {
		if e.Stage == obs.StageCheckpoint || e.Stage == obs.StageFinished {
			e.Value = 0
		}
		fmt.Fprintf(&b, "%s/%d/%d/%d ", e.Stage, e.SubWindow, e.Shard, e.Value)
	}
	return b.String()
}

func digest64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
