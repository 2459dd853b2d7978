package experiments

import (
	"fmt"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/query"
)

// Exp4Row is one sub-window's controller time breakdown (Figure 10): the
// five controller operations O1 (collect) .. O5 (evict).
type Exp4Row struct {
	Mechanism string // OTW or OSW
	SubWindow string // sw1..sw5 or "avg"
	Times     controller.OpTimes
}

// Exp4Result is the Figure 10 reproduction. The numbers are real measured
// wall-clock times of this controller implementation.
type Exp4Result struct {
	Rows []Exp4Row
}

// Table renders the breakdown in microseconds.
func (r Exp4Result) Table() string {
	us := func(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/1e3) }
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mechanism, row.SubWindow,
			us(row.Times.Collect), us(row.Times.Insert), us(row.Times.Merge),
			us(row.Times.Process), us(row.Times.Evict), us(row.Times.Total()),
		})
	}
	return table([]string{"Mech", "SubWin", "O1-collect(us)", "O2-insert(us)", "O3-merge(us)", "O4-process(us)", "O5-evict(us)", "total(us)"}, rows)
}

// RunExp4 reproduces Exp#4 (Figure 10): the controller's per-sub-window
// O1-O5 time breakdown for one complete Q1 window under tumbling and
// sliding plans. The measured sub-windows are a steady-state window
// (the second one, sw indexes WindowSub..2*WindowSub-1).
func RunExp4(sc Scale) Exp4Result {
	th := query.DefaultThresholds()
	h := newHarness(sc, Exp1Trace(sc, th), nil)
	cfg := queryConfig(sc, query.NewConnQuery(th))

	run := func(name string, sliding bool) []Exp4Row {
		d, _ := h.omni(sliding, cfg)
		var rows []Exp4Row
		var sum controller.OpTimes
		for i := 0; i < sc.WindowSub; i++ {
			sw := uint64(sc.WindowSub + i)
			ts := d.Controller().Times(sw)
			rows = append(rows, Exp4Row{Mechanism: name, SubWindow: fmt.Sprintf("sw%d", i+1), Times: ts})
			sum.Collect += ts.Collect
			sum.Insert += ts.Insert
			sum.Merge += ts.Merge
			sum.Process += ts.Process
			sum.Evict += ts.Evict
		}
		n := time.Duration(sc.WindowSub)
		rows = append(rows, Exp4Row{Mechanism: name, SubWindow: "avg", Times: controller.OpTimes{
			Collect: sum.Collect / n, Insert: sum.Insert / n, Merge: sum.Merge / n,
			Process: sum.Process / n, Evict: sum.Evict / n,
		}})
		return rows
	}

	var res Exp4Result
	res.Rows = append(res.Rows, run("OTW", false)...)
	res.Rows = append(res.Rows, run("OSW", true)...)
	return res
}
