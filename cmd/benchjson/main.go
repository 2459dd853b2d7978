// benchjson converts `go test -bench` output into machine-readable JSON
// so CI and the driver can diff performance numbers across PRs without
// scraping the human-oriented text format.
//
// It reads the benchmark log from stdin (or the files named as
// arguments), parses every result line, and writes a JSON document:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson -o BENCH.json
//
// Non-benchmark lines (package headers, PASS/ok trailers, warm-up noise)
// are passed through to stderr untouched, so the command is transparent
// in a pipe.
//
// It is also the perf-regression gate: compare mode diffs two of its own
// JSON documents and fails when any shared benchmark slowed down past the
// tolerance —
//
//	benchjson -compare BENCH_PR15.json BENCH_NOW.json -tolerance 0.15
//
// exits 1 if any benchmark's ns/op grew by more than 15%, or if any
// benchmark's allocs/op grew past the same fractional tolerance when both
// documents carry -benchmem data (a 0 allocs/op baseline therefore pins
// the benchmark at zero: any new allocation fails the gate). Improvements,
// added and removed benchmarks are reported but never fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (e.g. "BenchmarkFabricProcess", not "BenchmarkFabricProcess-8").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix, 1 if absent.
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only with -benchmem
	// (omitted from the JSON otherwise).
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Extra holds any custom b.ReportMetric units (e.g. "windows/op").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Output is the document benchjson emits.
type Output struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	compare := flag.Bool("compare", false, "diff two benchjson documents (baseline current) and fail on ns/op regressions")
	tolerance := flag.Float64("tolerance", 0.15, "with -compare: maximum allowed fractional ns/op increase")
	flag.Parse()

	if *compare {
		// The flag package stops at the first positional argument, so
		// `-compare baseline.json current.json -tolerance 0.15` leaves
		// -tolerance unparsed; accept it in trailing position too.
		files, err := parseCompareArgs(flag.Args(), tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, files[0], files[1], *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		readers := make([]io.Reader, 0, flag.NArg())
		for _, name := range flag.Args() {
			f, err := os.Open(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}

	doc := Output{Benchmarks: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		r, ok := parseLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseCompareArgs splits -compare's remaining arguments into exactly two
// file paths, honouring a -tolerance flag in trailing position (the flag
// package only parses flags that precede the first positional argument).
func parseCompareArgs(args []string, tolerance *float64) ([]string, error) {
	var files []string
	for i := 0; i < len(args); i++ {
		switch arg := args[i]; arg {
		case "-tolerance", "--tolerance":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("%s needs a value", arg)
			}
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad tolerance %q: %v", args[i], err)
			}
			*tolerance = v
		default:
			files = append(files, arg)
		}
	}
	if len(files) != 2 {
		return nil, fmt.Errorf("-compare needs exactly two files: baseline current")
	}
	return files, nil
}

// compareFiles diffs two benchjson documents and reports per-benchmark
// ns/op movement. It returns regressed=true when any benchmark present in
// both grew by more than tolerance (a fraction, e.g. 0.15 = +15%).
func compareFiles(w io.Writer, baselinePath, currentPath string, tolerance float64) (regressed bool, err error) {
	baseline, err := loadDoc(baselinePath)
	if err != nil {
		return false, err
	}
	current, err := loadDoc(currentPath)
	if err != nil {
		return false, err
	}
	return compareDocs(w, baseline, current, tolerance), nil
}

func loadDoc(path string) (Output, error) {
	var doc Output
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("%s: no benchmarks", path)
	}
	return doc, nil
}

// compareDocs writes one line per benchmark and returns true if any shared
// benchmark regressed past tolerance — in ns/op, or in allocs/op when both
// documents carry -benchmem data. An allocs/op baseline of 0 allows 0:
// zero-allocation hot paths stay pinned at zero. Benchmarks only in one
// document are listed but never fail the gate (renames and additions are
// routine).
func compareDocs(w io.Writer, baseline, current Output, tolerance float64) bool {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	cur := make(map[string]Result, len(current.Benchmarks))
	names := make([]string, 0, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)

	regressed := false
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "  NEW   %-45s %14.0f ns/op\n", name, c.NsPerOp)
			continue
		}
		if b.NsPerOp <= 0 {
			fmt.Fprintf(w, "  SKIP  %-45s baseline has no ns/op\n", name)
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSED"
			regressed = true
		}
		allocs := ""
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			allowed := int64(float64(*b.AllocsPerOp) * (1 + tolerance))
			if *c.AllocsPerOp > allowed {
				verdict = "REGRESSED"
				regressed = true
			}
			allocs = fmt.Sprintf("  %d → %d allocs/op", *b.AllocsPerOp, *c.AllocsPerOp)
		}
		fmt.Fprintf(w, "  %-9s %-45s %14.0f → %14.0f ns/op  (%+.1f%%, tolerance +%.0f%%)%s\n",
			verdict, name, b.NsPerOp, c.NsPerOp, delta*100, tolerance*100, allocs)
	}
	removed := make([]string, 0)
	for name := range base {
		if _, ok := cur[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "  GONE  %-45s (in baseline only)\n", name)
	}
	return regressed
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8  100  12345 ns/op  67 B/op  8 allocs/op  1.5 windows/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Procs: procs, Iterations: iters}
	seenNs := false
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "B/op":
			n := int64(v)
			r.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			r.AllocsPerOp = &n
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, seenNs
}
