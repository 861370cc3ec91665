package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/waitfor"
)

// searchSpec is one exhaustive search of a workload, with the verdict and
// exact state count the unchanged engine produces.
type searchSpec struct {
	name   string
	net    string // papernets scenario: figure1, gen5, gen6
	stall  int
	red    mcheck.Reduction
	want   mcheck.Verdict
	states int
	// maxMsgStall, when positive, bounds the cycles any single message is
	// stalled in the deadlock witness.
	maxMsgStall int
}

// The verify mix. Gen(6) deadlocks at total stall budget 5, although the
// README and EXPERIMENTS state that Gen(k) tolerates k-1 stall cycles
// (checked for k <= 5); its witness replays and stalls no single message
// more than 3 cycles. The check pins that observed verdict so the
// finding stays visible.
var verifySpecs = []searchSpec{
	{name: "figure1/stall0", net: "figure1", stall: 0, want: mcheck.VerdictNoDeadlock, states: 2996},
	{name: "figure1/stall1", net: "figure1", stall: 1, want: mcheck.VerdictDeadlock, states: 4768},
	{name: "gen5/stall4", net: "gen5", stall: 4, want: mcheck.VerdictNoDeadlock, states: 25757},
	{name: "gen6/stall5", net: "gen6", stall: 5, want: mcheck.VerdictDeadlock, states: 33277, maxMsgStall: 3},
	{name: "gen6/stall5/all", net: "gen6", stall: 5, red: mcheck.RedAll, want: mcheck.VerdictDeadlock, states: 9405, maxMsgStall: 3},
}

// The out-of-core mix: the two large unreduced searches of verify.
var outOfCoreSpecs = []searchSpec{verifySpecs[2], verifySpecs[3]}

// outOfCoreBudget is the spill backend's resident byte budget.
const outOfCoreBudget = 1 << 20

func runVerify(o options) (*result, error) {
	return runSearches(o, verifySpecs, mcheck.VisitedConfig{})
}

func runOutOfCore(o options) (*result, error) {
	return runSearches(o, outOfCoreSpecs, mcheck.VisitedConfig{
		Backend: mcheck.VisitedSpill, MemBudget: outOfCoreBudget, SpillDir: o.spillDir,
	})
}

// buildNets constructs the papernets scenarios the specs search: the
// networks, routing tables and message sets.
func buildNets(specs []searchSpec) (map[string]*papernets.Net, error) {
	nets := map[string]*papernets.Net{}
	for _, sp := range specs {
		if nets[sp.net] != nil {
			continue
		}
		switch sp.net {
		case "figure1":
			nets[sp.net] = papernets.Figure1()
		case "gen5":
			nets[sp.net] = papernets.GenK(5)
		case "gen6":
			nets[sp.net] = papernets.GenK(6)
		default:
			return nil, fmt.Errorf("unknown scenario %q", sp.net)
		}
	}
	return nets, nil
}

// searchRun is one timed search.
type searchRun struct {
	spec *searchSpec
	res  mcheck.SearchResult
	wall time.Duration
}

// passStats is one pass over a workload's searches.
type passStats struct {
	wall   time.Duration
	states int
	bytes  float64
	runs   []searchRun
}

// levelTracer counts the search's KindSearchLevel events.
type levelTracer struct {
	levels, peak int
}

func (t *levelTracer) Event(ev obsv.Event) {
	if ev.Kind == obsv.KindSearchLevel {
		t.levels++
		t.peak = max(t.peak, ev.N)
	}
}

type searchBench struct {
	o       options
	specs   []searchSpec
	nets    map[string]*papernets.Net
	visited mcheck.VisitedConfig
	rng     *rand.Rand
	res     *result
}

// pass runs every spec once, in a seed-shuffled order, checking each
// result. With a span log, each search also gets the search tracer and
// per-level Progress, and is recorded as an "mcheck.Search" span of pass
// trace.
func (b *searchBench) pass(workers int, spans *spanLog, trace int) passStats {
	order := b.rng.Perm(len(b.specs))
	ps := passStats{runs: make([]searchRun, len(b.specs))}
	h := readHeap()
	for _, i := range order {
		sp := &b.specs[i]
		sc := b.nets[sp.net].Scenario
		opts := mcheck.SearchOptions{
			StallBudget: sp.stall, FreezeInTransitOnly: true, Parallelism: workers,
			Reduction: sp.red, Visited: b.visited,
		}
		run := searchRun{spec: sp}
		var lt levelTracer
		var starts []time.Duration
		var sh heapCounters
		if spans != nil {
			opts.Tracer = &lt
			opts.ProgressEvery = time.Nanosecond
			opts.Progress = func(p mcheck.ProgressInfo) { starts = append(starts, p.Elapsed) }
			sh = readHeap()
		}
		t0 := time.Now()
		run.res = mcheck.Search(sc, opts)
		run.wall = time.Since(t0)
		if spans != nil {
			_, mallocs := sh.since()
			var slowest float64
			for k := 1; k < len(starts); k++ {
				slowest = max(slowest, float64((starts[k]-starts[k-1]).Nanoseconds())/1e6)
			}
			spans.add(span{pass: trace, name: "mcheck.Search", key: sp.name, dur: run.wall, counts: map[string]float64{
				"states": float64(run.res.States), "mallocs": mallocs,
				"levels": float64(lt.levels), "peak_frontier": float64(lt.peak), "level_ms_max": slowest,
			}})
		}
		b.res.check(sp.name, checkSearch(sp, sc, run.res), b.o.log)
		ps.wall += run.wall
		ps.states += run.res.States
		ps.runs[i] = run
	}
	ps.bytes, _ = h.since()
	return ps
}

// checkSearch compares a search with the unchanged engine's verdict and
// state count, and replays a deadlock witness to a Definition 6
// deadlock.
func checkSearch(sp *searchSpec, sc sim.Scenario, r mcheck.SearchResult) error {
	if r.Verdict != sp.want || r.States != sp.states {
		return fmt.Errorf("verdict %v over %d states; want %v over %d", r.Verdict, r.States, sp.want, sp.states)
	}
	if r.Verdict != mcheck.VerdictDeadlock {
		return nil
	}
	if r.Deadlock == nil || len(r.Trace) == 0 {
		return fmt.Errorf("deadlock verdict without a witness")
	}
	if err := waitfor.Verify(mcheck.Replay(sc, r.Trace), r.Deadlock); err != nil {
		return fmt.Errorf("witness does not replay: %w", err)
	}
	total, worst := witnessStalls(r.Trace)
	if total > sp.stall {
		return fmt.Errorf("witness stalls %d cycles, budget %d", total, sp.stall)
	}
	if sp.maxMsgStall > 0 && worst > sp.maxMsgStall {
		return fmt.Errorf("witness stalls one message %d cycles; observed %d", worst, sp.maxMsgStall)
	}
	return nil
}

// witnessStalls returns a trace's total stall cycles and the most cycles
// any single message is stalled.
func witnessStalls(trace []mcheck.Decision) (total, worst int) {
	per := map[int]int{}
	for _, d := range trace {
		for _, id := range d.Freeze {
			total++
			per[id]++
			worst = max(worst, per[id])
		}
	}
	return total, worst
}

func runSearches(o options, specs []searchSpec, visited mcheck.VisitedConfig) (*result, error) {
	nets, setup, err := timeSetup(o, func() (map[string]*papernets.Net, error) { return buildNets(specs) })
	if err != nil {
		return nil, err
	}
	b := &searchBench{o: o, specs: specs, nets: nets, visited: visited, rng: rand.New(rand.NewSource(o.seed)), res: &result{}}
	if o.trace {
		return b.traced()
	}
	var walls, rates, allocs []float64
	start := time.Now()
	for n := 0; until(start, n, o.seconds); n++ {
		ps := b.pass(o.workers, nil, 0)
		walls = append(walls, ps.wall.Seconds())
		rates = append(rates, float64(ps.states)/ps.wall.Seconds())
		allocs = append(allocs, ps.bytes/(1<<20))
	}
	r := b.res
	r.set("setup_s", "s", setup)
	r.set("wall_s", "s", median(walls))
	r.set("states_per_s", "1/s", median(rates))
	// A copy of states_per_s: every metric is printed on every workload.
	// It is not the simulator's step rate; the engine steps every
	// enumerated successor, also those the visited set rejects.
	r.set("sim_cycles_per_s", "1/s", median(rates))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("alloc_mb", "MB", median(allocs))
	return r, nil
}
