package repro

// The benchmark suite: every case of the internal/benchsuite registry,
// one sub-benchmark each — the experiments of DESIGN.md's index (E1-E7),
// the engine and telemetry rows of BENCH_mcheck.json, and the ablations
// of the design choices the paper calls out. Verdicts are asserted inside
// each case, so a bench run doubles as a reproduction run.
//
//	go test -run '^$' -bench Suite .              # every case
//	go test -run '^$' -bench 'Suite/E1_' .         # the E1 cases
//	go test -run '^$' -bench . -benchtime 1x -short .  # the cheap cases once

import (
	"testing"

	"repro/internal/benchsuite"
)

func BenchmarkSuite(b *testing.B) {
	for _, c := range benchsuite.Cases() {
		b.Run(c.Name, func(b *testing.B) {
			if c.Slow && testing.Short() {
				b.Skip("skipping slow benchmark case in -short mode")
			}
			c.Bench(b)
		})
	}
}

// TestSuiteRegistry keeps the registry and the committed baseline in
// step: case names are unique, and no BENCH_mcheck.json row can drop out
// of the suite silently.
func TestSuiteRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, c := range benchsuite.Cases() {
		if names[c.Name] {
			t.Errorf("duplicate case %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, row := range readBaseline(t).Rows {
		if !names[row.Name] {
			t.Errorf("BENCH_mcheck.json row %q is not a registry case", row.Name)
		}
	}
}
