package experiments

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// exp10Tiny is RunExp10 at TinyScale(2023), the one run both the golden
// pin and the Figure 15 shape read: the sweep alone takes ~10 s.
var exp10Tiny = sync.OnceValue(func() Exp10Result { return RunExp10(TinyScale(2023)) })

// skipWallHeavy skips the full accuracy runs where the rest of the
// package's wall-heavy tests skip.
func skipWallHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full accuracy tables")
	}
	if raceEnabled {
		t.Skip("full accuracy tables take minutes under the race detector")
	}
}

// TestAccuracyTablesGolden pins an FNV-64 digest of every accuracy table
// at TinyScale(2023): the comparisons the paper's Figures 7, 8 and 15 and
// the ablations rest on must not move when the code that runs the window
// mechanisms is rearranged. The zoo is pinned without its wall-clock
// Update(ns/pkt) column. A digest that moves on purpose is re-pinned in
// the same change that says why.
func TestAccuracyTablesGolden(t *testing.T) {
	skipWallHeavy(t)
	sc := TinyScale(2023)
	zoo := func() string {
		var rows [][]string
		for _, r := range RunSketchZoo(sc).Rows {
			rows = append(rows, []string{r.Sketch, pct(r.Precision), pct(r.Recall), fmt.Sprintf("%d", r.MemoryBytes)})
		}
		return table([]string{"Sketch", "Precision", "Recall", "Memory(B)"}, rows)
	}
	for _, c := range []struct {
		name   string
		render func() string
		want   uint64
	}{
		{"exp1", func() string { return RunExp1(sc).Table() }, 0x12faaf8e92c5174d},
		{"exp2", func() string { return RunExp2(sc).Table() }, 0xadb6e048efbf552b},
		{"exp10", func() string { return exp10Tiny().Table() }, 0x2f5aca9172934904},
		{"a1-merge", func() string { return RunAblationMerge(sc).Table() }, 0xe27233fb86c38d75},
		{"a3-flowkey", func() string { return RunAblationFlowkey(sc, []int{1024, 4096, 16384}).Table() }, 0x02caa404092c6e62},
		{"a5-subwindows", func() string { return RunAblationSubWindows(sc, []int{2, 5, 10}).Table() }, 0x47c36207a2cfd1bb},
		{"zoo", zoo, 0x07d90eb94ec8846e},
	} {
		tbl := c.render()
		h := fnv.New64a()
		h.Write([]byte(tbl))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s digest %#016x, want %#016x; table:\n%s", c.name, got, c.want, tbl)
		}
	}
}

// TestExp10Shape holds Figure 15's claim at TinyScale(2023): OmniWindow
// keeps its accuracy as the user-desired window grows past the 0.5 s the
// conventional mechanisms allocated for, while TW1, TW2 and the Sliding
// Sketch lose most of their precision.
func TestExp10Shape(t *testing.T) {
	skipWallHeavy(t)
	res := exp10Tiny()
	const small, large = 500 * Millisecond, 2000 * Millisecond
	get := func(mech string, win int64) Exp10Row {
		t.Helper()
		r, ok := res.Get(mech, win)
		if !ok {
			t.Fatalf("no %s row at %v ms", mech, win/Millisecond)
		}
		return r
	}
	for _, mech := range []string{"OTW", "OSW"} {
		for _, win := range []int64{500 * Millisecond, 1000 * Millisecond, 1500 * Millisecond, large} {
			if r := get(mech, win); r.Recall != 1 || r.Precision < 0.9 {
				t.Errorf("%s at %v ms: precision %.3f recall %.3f, want >= 0.9 and 1", mech, win/Millisecond, r.Precision, r.Recall)
			}
		}
		if d := get(mech, large).Precision - get(mech, small).Precision; d > 0.02 || d < -0.02 {
			t.Errorf("%s precision moved %.3f between 0.5 s and 2 s, want within 0.02", mech, d)
		}
	}
	for _, mech := range []string{"TW1", "TW2", "SS"} {
		if p0, p2 := get(mech, small).Precision, get(mech, large).Precision; p2 >= p0/2 {
			t.Errorf("%s precision %.3f at 2 s, want below half its %.3f at 0.5 s", mech, p2, p0)
		}
	}
	for _, win := range []int64{1000 * Millisecond, 1500 * Millisecond, large} {
		if otw, tw2 := get("OTW", win).Precision, get("TW2", win).Precision; otw <= tw2 {
			t.Errorf("at %v ms OTW precision %.3f does not beat TW2's %.3f", win/Millisecond, otw, tw2)
		}
	}
}
