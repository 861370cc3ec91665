// Command perfbench is the repository benchmark. It drives the library
// from outside, through public calls only, on one of three workloads:
//
//	verify            exhaustive model checking on the default mem backend
//	verify-outofcore  the Gen(k) searches on the disk-spilling backend
//	loadsweep         an open-loop 8x8 mesh saturation sweep with telemetry
//
// Usage:
//
//	perfbench --workload verify --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times the workload for --seconds and prints every
// end-to-end metric; with --trace 1 it records a span around each search
// and rate point, computes the per-layer metrics from the spans and from
// timings of each layer on the workload's own inputs, and prints them,
// preceded by one decomposition line per search. Every
// operation's output is checked; the last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the exit status is nonzero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one named value as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one operation's output check; a non-nil err is a failure.
func (r *result) check(op string, err error, log io.Writer) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(log, "perfbench: FAILED %s: %v\n", op, err)
	}
}

// options is everything a workload run depends on.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the search parallelism and the number of load points in
	// flight at once: one per available CPU.
	workers int
	// setupFor is how long the set-up is repeated, at least minSetups
	// times; setup_s is the median.
	setupFor time.Duration
	// spillDir is where the spill backend keeps its run files.
	spillDir string
	// out receives the decomposition lines; log receives diagnostics.
	out, log io.Writer
}

var workloads = map[string]func(options) (*result, error){
	"verify":           runVerify,
	"verify-outofcore": runOutOfCore,
	"loadsweep":        runLoadsweep,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: verify, verify-outofcore, loadsweep")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.spillDir, "spill-dir", ".bench_build/spill", "parent directory for spill-backend run files")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.setupFor = 2 * time.Second
	o.workers = runtime.GOMAXPROCS(0)
	o.out, o.log = os.Stdout, os.Stderr

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result line.
func run(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want verify, verify-outofcore, loadsweep)", o.workload)
	}
	if o.spillDir != "" {
		if err := os.MkdirAll(o.spillDir, 0o755); err != nil {
			return nil, err
		}
	}
	res, err := fn(o)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// minSetups is the fewest set-up repetitions setup_s is the median of.
const minSetups = 25

// timeSetup runs build repeatedly for o.setupFor, at least minSetups
// times, and returns the median duration in seconds together with the
// last build's value. A host CPU woken from idle can run at half speed
// for about the first second of a process; repeating past it keeps the
// median on the steady speed the timed passes see.
func timeSetup[T any](o options, build func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < o.setupFor; i++ {
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return v, median(secs), nil
}

// until reports whether a timed loop that began at start and has done n
// iterations should run another one: at least one iteration, then until
// the measurement time is used up.
func until(start time.Time, n int, seconds float64) bool {
	return n == 0 || time.Since(start).Seconds() < seconds
}
