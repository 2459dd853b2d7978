package fabric

import (
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
)

// BenchmarkFabricProcess measures the fabric's per-packet hot path: one
// packet traversing a healthy 3-switch chain (stamp at the origin, stamp
// adoption at two downstream hops, boundary bookkeeping amortized in).
func BenchmarkFabricProcess(b *testing.B) {
	f := chain(b, 3, nil, nil)
	pkts := steadyTrace([]int{1, 2, 3, 4}, 250, 1000*ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		p.Time += int64(i/len(pkts)) * 1000 * ms // keep virtual time monotone across laps
		f.Process(&p)
	}
}

// BenchmarkFabricChaosRun measures a full chaos run: a 3-switch chain
// with a seeded reboot schedule on the middle switch processing a
// complete trace, including resync, gap accounting and window merging.
func BenchmarkFabricChaosRun(b *testing.B) {
	pkts := steadyTrace([]int{1, 2, 3, 4, 5}, 200, 2000*ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		scheds := []*faults.SwitchSchedule{
			nil,
			{Seed: 7, Reboot: faults.Fault{Prob: 0.1}},
			nil,
		}
		f := chain(b, 3, scheds, nil)
		run := make([]packet.Packet, len(pkts))
		copy(run, pkts)
		b.StartTimer()
		if ws := f.Run(run); len(ws) == 0 {
			b.Fatal("no windows")
		}
	}
}

// BenchmarkFabricMerge isolates the window-merge path: the per-node
// windows already exist and Windows() folds them into the fabric-wide
// view (per-flow max, coverage and gap accounting).
func BenchmarkFabricMerge(b *testing.B) {
	f := chain(b, 3, nil, nil)
	pkts := steadyTrace([]int{1, 2, 3, 4, 5, 6, 7, 8}, 200, 1000*ms)
	f.Run(pkts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws := f.Windows(); len(ws) == 0 {
			b.Fatal("no windows")
		}
	}
}
