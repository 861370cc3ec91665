package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsShort runs every workload once, untraced and traced, at
// the smallest size (one pass, the fewest set-ups) and checks that the
// output check passes and that exactly the metrics BENCHMARK.json names
// are emitted, each with its unit.
func TestWorkloadsShort(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var out, log bytes.Buffer
				res, err := run(options{
					workload: wl.Name, seed: 1, trace: trace, workers: runtime.GOMAXPROCS(0),
					spillDir: t.TempDir(), out: &out, log: &log,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("output check: %d of %d failed\n%s", res.Failed, res.Attempted, log.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				specs := map[string][]searchSpec{"verify": verifySpecs, "verify-outofcore": outOfCoreSpecs}[wl.Name]
				if trace && strings.Count(out.String(), "decomposition ") != len(specs) {
					t.Errorf("want one decomposition line per search (%d):\n%s", len(specs), out.String())
				}
			})
		}
	}
}

// TestRecordSweepDigests prints the sweepDigests table for seeds 0..127
// from the current library. It runs only with PERFBENCH_RECORD=1; paste
// its output into loadsweep.go when a change to the simulator or traffic
// engine is meant to change the sweep's results.
func TestRecordSweepDigests(t *testing.T) {
	if os.Getenv("PERFBENCH_RECORD") != "1" {
		t.Skip("set PERFBENCH_RECORD=1 to record")
	}
	sw, err := buildSweep()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for seed := int64(0); seed < 128; seed++ {
		pts, _ := sw.sweepPass(seed, runtime.GOMAXPROCS(0), nil, 0)
		for _, p := range pts {
			if p.err != nil {
				t.Fatal(p.err)
			}
		}
		fmt.Fprintf(&b, "\t%d: 0x%016x,\n", seed, sweepDigest(pts))
	}
	fmt.Print(b.String())
}
