// Command benchdiff compares two performance artifacts and fails on
// regression, turning BENCH_mcheck.json (and the run manifests of
// internal/obsv/manifest) from a diffable record into an enforced
// contract. Each input is either a benchjson output file or a directory
// of run-manifest JSONs; rows are matched by benchmark name.
//
// Two columns are guarded: states/sec (throughput; a drop beyond
// -tolerance is a regression) and allocs/op (allocation discipline; an
// increase beyond -alloc-tolerance is a regression — including any
// allocation appearing on a previously allocation-free row, which is how
// the EncodeTo zero-alloc invariant stays pinned). The comparison prints
// as a markdown table, and the exit status is 1 iff at least one row
// regressed, so CI can gate on it directly.
//
// Rows named in -pin must additionally measure exactly 0 allocs/op in the
// NEW artifact, whatever the old side says — the guard that keeps the
// steady-state simulator rows allocation-free even across baseline
// regenerations (a zero-alloc baseline row going nonzero already fails
// without -pin).
//
// Rows named in -require must be present in the NEW artifact — the guard
// that keeps a benchmark (and the code path it asserts, like the
// out-of-core E10 row) from silently dropping out of the suite, since a
// row missing from NEW otherwise just renders as "removed".
//
//	benchdiff BENCH_mcheck.json BENCH_ci.json
//	benchdiff -tolerance 0.5 baseline/ candidate/
//	benchdiff -pin E7_SimThroughput,EncodeTo BENCH_mcheck.json BENCH_ci.json
//	benchdiff -require E10_SearchOutOfCore BENCH_mcheck.json BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchsuite"
	"repro/internal/obsv/manifest"
)

// point is one benchmark row's guarded numbers, from either input kind.
type point struct {
	StatesPerSec int64
	AllocsPerOp  int64
	NsPerOp      int64
	States       int
	// HasAllocs distinguishes a measured 0 allocs/op from a row (e.g. a
	// search manifest entry) that never measured allocations.
	HasAllocs bool
}

// loadPoints reads one comparison side: a benchjson file, a single run
// manifest, or a directory of run manifests.
func loadPoints(path string) (map[string]point, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	points := make(map[string]point)
	addRun := func(r manifest.Run) {
		points[r.Name] = point{
			StatesPerSec: r.StatesPerSec,
			AllocsPerOp:  r.AllocsPerOp,
			NsPerOp:      r.NsPerOp,
			States:       r.States,
			HasAllocs:    r.NsPerOp > 0, // benchmark rows carry timings; search-only rows don't
		}
	}
	if fi.IsDir() {
		ms, err := manifest.LoadDir(path)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			for _, r := range m.Runs {
				addRun(r)
			}
		}
		return points, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rep, err := benchsuite.Parse(raw); err == nil && len(rep.Rows) > 0 {
		for _, e := range rep.Rows {
			points[e.Name] = point{
				StatesPerSec: e.StatesPerSec,
				AllocsPerOp:  e.AllocsPerOp,
				NsPerOp:      e.NsPerOp,
				States:       e.States,
				HasAllocs:    true,
			}
		}
		return points, nil
	}
	var m manifest.Manifest
	if err := json.Unmarshal(raw, &m); err != nil || m.Command == "" {
		return nil, fmt.Errorf("benchdiff: %s is neither a benchjson file nor a run manifest", path)
	}
	for _, r := range m.Runs {
		addRun(r)
	}
	return points, nil
}

// row is one rendered comparison line.
type row struct {
	name       string
	old, new_  point
	spsDelta   float64 // fractional change, new/old - 1
	allocDelta float64
	status     string // "ok", "REGRESSION", "added", "removed"
	regressed  bool
}

// diff compares two point sets. tol bounds the allowed fractional
// states/sec drop, allocTol the allowed fractional allocs/op increase.
func diff(old, new_ map[string]point, tol, allocTol float64) []row {
	names := make(map[string]struct{}, len(old)+len(new_))
	for n := range old {
		names[n] = struct{}{}
	}
	for n := range new_ {
		names[n] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var rows []row
	for _, n := range sorted {
		o, haveOld := old[n]
		c, haveNew := new_[n]
		r := row{name: n, old: o, new_: c, status: "ok"}
		switch {
		case !haveOld:
			r.status = "added"
		case !haveNew:
			r.status = "removed"
		default:
			if o.StatesPerSec > 0 && c.StatesPerSec > 0 {
				r.spsDelta = float64(c.StatesPerSec)/float64(o.StatesPerSec) - 1
				if float64(c.StatesPerSec) < float64(o.StatesPerSec)*(1-tol) {
					r.regressed = true
				}
			}
			if o.HasAllocs && c.HasAllocs {
				switch {
				case o.AllocsPerOp == 0 && c.AllocsPerOp > 0:
					// A zero-alloc row growing any allocation is always a
					// regression; no tolerance can excuse it.
					r.regressed = true
					r.allocDelta = 1
				case o.AllocsPerOp > 0:
					r.allocDelta = float64(c.AllocsPerOp)/float64(o.AllocsPerOp) - 1
					if float64(c.AllocsPerOp) > float64(o.AllocsPerOp)*(1+allocTol) {
						r.regressed = true
					}
				}
			}
			if r.regressed {
				r.status = "REGRESSION"
			}
		}
		rows = append(rows, r)
	}
	return rows
}

func fmtCount(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// renderMarkdown prints the comparison table.
func renderMarkdown(w *strings.Builder, rows []row) {
	fmt.Fprintln(w, "| benchmark | states/sec (old) | states/sec (new) | Δ | allocs/op (old) | allocs/op (new) | Δ | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---|")
	for _, r := range rows {
		sps, alloc := "-", "-"
		if r.old.StatesPerSec > 0 && r.new_.StatesPerSec > 0 {
			sps = fmt.Sprintf("%+.1f%%", r.spsDelta*100)
		}
		if r.old.HasAllocs && r.new_.HasAllocs {
			alloc = fmt.Sprintf("%+.1f%%", r.allocDelta*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			r.name,
			fmtCount(r.old.StatesPerSec), fmtCount(r.new_.StatesPerSec), sps,
			fmtCount(r.old.AllocsPerOp), fmtCount(r.new_.AllocsPerOp), alloc,
			r.status)
	}
}

func main() {
	tol := flag.Float64("tolerance", 0.2, "allowed fractional states/sec drop before a row counts as regressed")
	allocTol := flag.Float64("alloc-tolerance", 0.05, "allowed fractional allocs/op increase before a row counts as regressed")
	pin := flag.String("pin", "", "comma-separated rows that must measure exactly 0 allocs/op in NEW")
	require := flag.String("require", "", "comma-separated rows that must be present in NEW")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] OLD NEW  (each a benchjson file or a manifest directory)")
		os.Exit(2)
	}
	old, err := loadPoints(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := loadPoints(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rows := diff(old, cur, *tol, *allocTol)
	var sb strings.Builder
	renderMarkdown(&sb, rows)
	os.Stdout.WriteString(sb.String())

	regressed := 0
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := cur[name]; !ok {
				fmt.Fprintf(os.Stderr, "benchdiff: required row %q missing from %s\n", name, flag.Arg(1))
				regressed++
			}
		}
	}
	if *pin != "" {
		for _, name := range strings.Split(*pin, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			p, ok := cur[name]
			switch {
			case !ok:
				fmt.Fprintf(os.Stderr, "benchdiff: pinned row %q missing from %s\n", name, flag.Arg(1))
				regressed++
			case !p.HasAllocs:
				fmt.Fprintf(os.Stderr, "benchdiff: pinned row %q carries no allocation measurement\n", name)
				regressed++
			case p.AllocsPerOp != 0:
				fmt.Fprintf(os.Stderr, "benchdiff: pinned row %q allocates %d allocs/op; must be 0\n", name, p.AllocsPerOp)
				regressed++
			}
		}
	}
	for _, r := range rows {
		if r.regressed {
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond tolerance (states/sec -%.0f%%, allocs/op +%.0f%%)\n",
			regressed, *tol*100, *allocTol*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: no regressions across %d row(s)\n", len(rows))
}
