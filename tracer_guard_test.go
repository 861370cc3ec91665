package repro

// Guard for the observability layer's zero-overhead contract: with no
// tracer attached (the default), the exhaustive search must stay on the
// allocation profile recorded in BENCH_mcheck.json. Every emission site
// in internal/sim and internal/mcheck sits behind an `if tracer != nil`
// check, so a regression here means someone hoisted work out of a guard.

import (
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/mcheck"
)

// readBaseline reads the committed BENCH_mcheck.json.
func readBaseline(t *testing.T) *benchsuite.Report {
	t.Helper()
	rep, err := benchsuite.ReadFile("BENCH_mcheck.json")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return rep
}

// baselineCase returns the registry case named name and its committed
// baseline row.
func baselineCase(t *testing.T, name string) (benchsuite.Case, benchsuite.Row) {
	t.Helper()
	c, ok := benchsuite.Lookup(name)
	if !ok {
		t.Fatalf("registry: no case %q", name)
	}
	row, ok := readBaseline(t).Row(name)
	if !ok {
		t.Fatalf("baseline: no record %q", name)
	}
	return c, row
}

// oneWorker pins a search to one worker, where allocation counts are
// nearly deterministic.
func oneWorker(o *mcheck.SearchOptions) { o.Parallelism = 1 }

// checkFastPath benchmarks a registry search case (nil tracer, one
// worker) and asserts it reproduces the exact deterministic state count
// and reduction this test expects, which the baseline row must record
// too, and stays within 5% of the row's recorded allocations. Wall time
// is deliberately not asserted: the recorded ns/op is machine-specific.
func checkFastPath(t *testing.T, name string, wantStates int, wantRed mcheck.Reduction) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	want := ""
	if wantRed != mcheck.RedNone {
		want = wantRed.String()
	}
	c, base := baselineCase(t, name)
	if base.States != wantStates || base.Reduction != want {
		t.Fatalf("%s: baseline records %d states (reduction %q), test expects %d (%q)",
			name, base.States, base.Reduction, wantStates, want)
	}
	got, err := c.Probe(oneWorker)
	if err != nil {
		t.Fatal(err)
	}
	if got.States != wantStates || got.Reduction != want {
		t.Errorf("%s: searched %d states (reduction %q), want %d (%q) — determinism broken",
			name, got.States, got.Reduction, wantStates, want)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Run(oneWorker); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatalf("%s: benchmark failed", name)
	}
	limit := base.AllocsPerOp + base.AllocsPerOp/20 // 5% slack over the recorded baseline
	if got := r.AllocsPerOp(); got > limit {
		t.Errorf("%s: %d allocs/op with tracing disabled; baseline %d (+5%% = %d) — an obsv emission site is allocating outside its nil-tracer guard",
			name, got, base.AllocsPerOp, limit)
	} else {
		t.Logf("%s: %d allocs/op (baseline %d, limit %d), %d ns/op", name, got, base.AllocsPerOp, limit, r.NsPerOp())
	}
}

// TestDisabledTracerFastPath_E1 holds the Theorem 1 search (Figure 1)
// to the pre-observability allocation budget.
func TestDisabledTracerFastPath_E1(t *testing.T) {
	checkFastPath(t, "E1_Figure1_Search", 2996, mcheck.RedNone)
}

// TestDisabledTracerFastPath_E1_Reduced holds the reduced search path to
// the same contract: the per-state pruning and canonicalization work
// must stay on enumerator/worker scratch, not allocate per state.
func TestDisabledTracerFastPath_E1_Reduced(t *testing.T) {
	checkFastPath(t, "E1_Figure1_Search_Reduced", 818, mcheck.RedAll)
}

// TestDisabledTracerFastPath_E5 does the same over all six Figure 3
// searches (the heaviest tier-1 search load).
func TestDisabledTracerFastPath_E5(t *testing.T) {
	checkFastPath(t, "E5_Figure3_SearchAll", 8743, mcheck.RedNone)
}
