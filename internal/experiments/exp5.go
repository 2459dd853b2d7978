package experiments

import (
	"fmt"
	"time"

	"omniwindow/internal/query"
	"omniwindow/internal/switchsim"
	"omniwindow/internal/window"
)

// Exp5Result is the Table 2 reproduction: per-feature switch resource
// usage of the OmniWindow data plane (Q1 deployment with the RDMA
// optimization enabled).
type Exp5Result struct {
	Features map[string]switchsim.Resources
	Total    switchsim.Resources
	// Utilization is each column's fraction of the modeled ASIC.
	Utilization map[string]float64
	rendered    string
}

// Table renders the per-feature breakdown plus utilization.
func (r Exp5Result) Table() string { return r.rendered }

// RunExp5 reproduces Exp#5 (Table 2): deploy Q1 with every OmniWindow
// feature (including the RDMA optimization) and report the ledger.
func RunExp5(sc Scale) Exp5Result {
	cfg := queryConfig(sc, query.NewConnQuery(query.DefaultThresholds()))
	cfg.SubWindow = time.Duration(sc.SubWindowNs)
	cfg.Plan = window.Tumbling(sc.WindowSub)
	cfg.Tracker = trackerFor(sc)
	cfg.RDMA = true
	d := deploy(cfg)
	ledger := d.Switch().Ledger()
	res := Exp5Result{
		Features:    make(map[string]switchsim.Resources),
		Total:       ledger.Total(),
		Utilization: ledger.Utilization(),
	}
	for _, f := range ledger.Features() {
		res.Features[f] = ledger.Feature(f)
	}
	res.rendered = ledger.Table() + fmt.Sprintf(
		"\nUtilization: stage %s, SRAM %s, SALU %s, VLIW %s, gateway %s\n",
		pct(res.Utilization["Stage"]), pct(res.Utilization["SRAM"]),
		pct(res.Utilization["SALU"]), pct(res.Utilization["VLIW"]),
		pct(res.Utilization["Gateway"]))
	return res
}
