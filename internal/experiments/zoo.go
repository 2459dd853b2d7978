package experiments

import (
	"fmt"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
)

// ZooRow is one sketch's result in the heavy-hitter zoo.
type ZooRow struct {
	Sketch    string
	Precision float64
	Recall    float64
	// UpdateNsPerPkt is the measured wall-clock update cost.
	UpdateNsPerPkt float64
	// MemoryBytes is the instantiated per-sub-window footprint.
	MemoryBytes int
}

// ZooResult compares every heavy-hitter-capable sketch in the library
// under OmniWindow tumbling windows at an equal per-sub-window memory
// budget — an extension beyond the paper's MV/HP pair, showing the
// framework is agnostic to the deployed algorithm.
type ZooResult struct {
	Rows []ZooRow
}

// Table renders the comparison.
func (r ZooResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Sketch, pct(row.Precision), pct(row.Recall),
			fmt.Sprintf("%.0f", row.UpdateNsPerPkt),
			fmt.Sprintf("%d", row.MemoryBytes)})
	}
	return table([]string{"Sketch", "Precision", "Recall", "Update(ns/pkt)", "Memory(B)"}, rows)
}

// sizedSketch builds one of the library's frequency sketches within mem
// bytes, returning it with the number of AFR slots its app enumerates.
// The zoo runs all of them; Exp#2 and Exp#10 pick theirs by name.
type sizedSketch func(mem int, seed uint64) (sketch.Sketch, int)

// app wraps the sketch in the frequency app every experiment deploys.
func (mk sizedSketch) app(mem int, seed uint64) afr.StateApp {
	s, slots := mk(mem, seed)
	return telemetry.NewFrequencyApp(s, slots)
}

var (
	countMin sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		s := sketch.NewCountMinBytes(4, mem, seed)
		return s, s.Width()
	}
	suMax sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		return sketch.NewSuMaxBytes(4, mem, seed), max(mem/(4*8), 1)
	}
	mvSketch sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		return sketch.NewMVBytes(4, mem, seed), max(mem/(4*sketch.MVBucketBytes), 1)
	}
	hashPipe sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		return sketch.NewHashPipeBytes(4, mem, seed), max(mem/(4*sketch.HPSlotBytes), 1)
	}
	elastic sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		return sketch.NewElasticBytes(mem, seed), max(mem/4/sketch.ElasticBucketBytes, 1)
	}
	univMon sizedSketch = func(mem int, seed uint64) (sketch.Sketch, int) {
		return &univAdapter{sketch.NewUnivMonBytes(8, mem, seed)}, max(mem/(8*5*8), 8)
	}
)

// univAdapter bridges UnivMon's level-0 point query to the sketch.Sketch
// interface the frequency app expects.
type univAdapter struct{ u *sketch.UnivMon }

func (a *univAdapter) Update(k packet.FlowKey, v uint64) { a.u.Update(k, v) }
func (a *univAdapter) Query(k packet.FlowKey) uint64     { return a.u.Query(k) }
func (a *univAdapter) Reset()                            { a.u.Reset() }
func (a *univAdapter) MemoryBytes() int                  { return a.u.MemoryBytes() }

// RunSketchZoo evaluates the zoo over the Exp#2 workload under OmniWindow
// tumbling windows.
func RunSketchZoo(sc Scale) ZooResult {
	pkts := Exp2Trace(sc)
	h := newHarness(sc, pkts, exactPacketCounts)
	ideal := detectOutputs(h.ideal(false), heavyThreshold)

	var res ZooResult
	for _, be := range []struct {
		name string
		mk   sizedSketch
	}{{"CM", countMin}, {"SuMax", suMax}, {"MV", mvSketch}, {"HashPipe", hashPipe}, {"Elastic", elastic}, {"UnivMon", univMon}} {
		s, _ := be.mk(sc.SubSketchMemory(), 1)
		cfg := appConfig(sc, afr.Frequency, heavyThreshold, sc.SubSketchMemory(), be.mk.app)
		start := time.Now()
		_, got := h.omni(false, cfg)
		elapsed := time.Since(start)
		det := scoreWindows(detectedSets(got), ideal)
		res.Rows = append(res.Rows, ZooRow{
			Sketch:         be.name,
			Precision:      det.Precision(),
			Recall:         det.Recall(),
			UpdateNsPerPkt: float64(elapsed.Nanoseconds()) / float64(len(pkts)),
			MemoryBytes:    s.MemoryBytes(),
		})
	}
	return res
}
