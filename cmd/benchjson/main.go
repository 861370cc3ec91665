// Command benchjson runs every case of the internal/benchsuite registry
// through testing.Benchmark and writes one row per case as
// BENCH_mcheck.json. The JSON is byte-stable: fixed row order, fixed
// field order, integral values — only the measured numbers change
// between runs, so diffs of the artifact read as perf deltas. Every
// search case's verdict is asserted before it is timed; a wrong verdict,
// a failed case or a panic exits nonzero, which is what the CI bench job
// keys off.
//
//	benchjson            # writes ./BENCH_mcheck.json
//	benchjson -o -       # writes to stdout
//	benchjson -quick     # ~10x faster, noisier numbers
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/cli"
	"repro/internal/mcheck"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/serve"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	testing.Init() // registers test.benchtime so quick mode can shrink it
	out := flag.String("o", "BENCH_mcheck.json", "output path, or - for stdout")
	quick := flag.Bool("quick", false, "run each benchmark for ~0.1s instead of ~1s")
	obsvF := cli.RegisterObsvFlags()
	flag.Parse()
	if *quick {
		if err := flag.Set("test.benchtime", "100ms"); err != nil {
			fail("set benchtime: %v", err)
		}
	}
	obs, err := obsvF.Open("benchjson", nil)
	if err != nil {
		fail("%v", err)
	}

	rep := benchsuite.Report{GoMaxProcs: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0)}
	for _, c := range benchsuite.Cases() {
		// Only the verdict probe reports through the observability sinks;
		// the timed loop runs the case as defined, so tracing or serving
		// never perturbs the measured numbers.
		row, err := c.Probe(func(o *mcheck.SearchOptions) {
			o.Tracer = obs.Tracer
			o.Metrics = obs.Metrics
			o.Progress = obs.SearchProgress(c.Name)
		})
		if err != nil {
			fail("%v", err)
		}
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			fail("%s failed; `go test -run '^$' -bench 'Suite/%s' .` prints why", c.Name, c.Name)
		}
		row.SetTiming(r)
		rep.Rows = append(rep.Rows, row)
		obs.RecordRun(manifest.Run{
			Name: row.Name, Verdict: row.Verdict,
			States: row.States, StatesPerSec: row.StatesPerSec,
			NsPerOp: row.NsPerOp, AllocsPerOp: row.AllocsPerOp, BytesPerOp: row.BytesPerOp,
			Reduction: row.Reduction, StatesPruned: row.StatesPruned,
			VisitedBackend: row.VisitedBackend, SpillBytes: row.SpillBytes,
		})
		obs.Publish(serve.Snapshot{Source: "run", Name: row.Name, States: row.States, StatesPerSec: row.StatesPerSec})
		fmt.Fprintf(os.Stderr, "%-32s %12d ns/op %10d allocs/op", row.Name, row.NsPerOp, row.AllocsPerOp)
		if row.StatesPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %10d states/sec", row.StatesPerSec)
		}
		fmt.Fprintln(os.Stderr)
	}

	if err := obs.Close(); err != nil {
		fail("%v", err)
	}
	blob, err := rep.Marshal()
	if err != nil {
		fail("marshal: %v", err)
	}
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
