package fabric

import (
	"fmt"
	"strings"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
)

// TestFabricObservability runs the quarantine chaos scenario with a shared
// observability registry and reconciles the per-switch labeled metrics and
// the merged lifecycle trace against the fabric's own accounting.
func TestFabricObservability(t *testing.T) {
	reg := obs.NewRegistry()
	pkts := steadyTrace([]int{1, 2, 3}, 300, 3000*ms)
	scheds := []*faults.SwitchSchedule{
		{Reboot: faults.Fault{Fixed: []uint64{5}}},
		nil,
		nil,
	}
	f := chain(t, 3, scheds, func(c *Config) {
		c.StrikeLimit = 3
		c.QuarantineFor = 4
		c.Obs = reg
	})
	f.Run(pkts)

	if f.Obs() != reg {
		t.Fatal("fabric did not adopt the supplied registry")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Every switch registered its deployment metrics under its own label.
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("omniwindow_switch_packets_total{switch=%q}", fmt.Sprint(i))
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// Fabric health counters reconcile with the fabric's accounting: the
	// rebooted switch was quarantined once and readmitted once.
	counter := func(name string) int64 {
		return reg.Counter(name, "").Value()
	}
	if got := counter(`omniwindow_fabric_quarantines_total{switch="0"}`); got != 1 {
		t.Errorf("switch 0 quarantines counter = %d, want 1", got)
	}
	if got := counter(`omniwindow_fabric_readmits_total{switch="0"}`); got != 1 {
		t.Errorf("switch 0 readmits counter = %d, want 1", got)
	}
	if got := counter(`omniwindow_fabric_strikes_total{switch="0"}`); got < 3 {
		t.Errorf("switch 0 strikes counter = %d, want >= StrikeLimit 3", got)
	}
	if got := counter(`omniwindow_switch_reboots_total{switch="0"}`); got != int64(f.Node(0).Stats().Reboots) {
		t.Errorf("switch 0 reboots counter = %d, stats say %d", got, f.Node(0).Stats().Reboots)
	}
	if got := counter(`omniwindow_fabric_quarantines_total{switch="1"}`); got != 0 {
		t.Errorf("healthy switch 1 has %d quarantines", got)
	}

	// The merged trace ring interleaves the failure lifecycle with the
	// window lifecycle.
	seen := make(map[obs.Stage]bool)
	for _, e := range reg.Ring(0).Snapshot() {
		seen[e.Stage] = true
	}
	for _, stage := range []obs.Stage{
		obs.StageAnnounced, obs.StageCollected, obs.StageWindowEmitted,
		obs.StageReboot, obs.StageEpochResync, obs.StageQuarantine, obs.StageReadmit,
	} {
		if !seen[stage] {
			t.Errorf("trace ring missing stage %v", stage)
		}
	}
}
