package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mcheck"
	"repro/internal/sim"
)

// traced is the per-layer run of a search workload. It times the sim
// layer on each scenario's own states, then alternates three passes until
// the measurement time is used: a traced pass at full parallelism (spans,
// tracer, per-level Progress), the same untraced (the trace overhead's
// base), and a traced pass at one worker. The one-worker pass gives the
// parallel efficiency and the decomposition: the sim layer costs are
// single-threaded, so they are compared with one-worker time per state.
// The mcheck metrics come from the two kinds of traced pass's spans.
func (b *searchBench) traced() (*result, error) {
	o, r := b.o, b.res

	costs := map[string]simCosts{}
	perms := map[string][]sim.Permutation{}
	rng := rand.New(rand.NewSource(o.seed))
	for _, sp := range b.specs {
		if _, done := costs[sp.net]; done {
			continue
		}
		sc := b.nets[sp.net].Scenario
		perms[sp.net] = scenarioPerms(sc)
		c, err := timeSim(sampleSearchStates(sc, 256, rng), perms[sp.net], 15)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.net, err)
		}
		costs[sp.net] = c
	}

	full, serial := &spanLog{}, &spanLog{}
	var last passStats
	var plain []float64
	start := time.Now()
	for n := 0; until(start, n, o.seconds); n++ {
		last = b.pass(o.workers, full, n)
		plain = append(plain, b.pass(o.workers, nil, 0).wall.Seconds())
		b.pass(1, serial, n)
	}

	// Sim rows and the predicted per-state cost, weighted by each search's
	// state count so they describe the workload's mix.
	var sims simCosts
	var predicted, total float64
	for _, sp := range b.specs {
		total += float64(sp.states)
	}
	pred := map[string]float64{}
	for _, sp := range b.specs {
		c := costs[sp.net]
		w := float64(sp.states) / total
		sims.addWeighted(c, w)
		p := c.clone + c.step + c.encode
		if sp.red.Symmetry() {
			p += c.canon - c.encode
		}
		if b.visited.Backend == mcheck.VisitedSpill {
			p += c.decode // the batched frontier decodes every state
		}
		pred[sp.name] = p
		predicted += w * p
	}
	sims.report(r)

	// Per-pass figures from the spans: search time per state, allocations
	// per state, the slowest level, and the pass's summed search time.
	const call = "mcheck.Search"
	var nsPerState, nsPerState1, allocsPerState, levelMax, wallN, wall1 []float64
	for _, ps := range full.passes(call) {
		nsPerState = append(nsPerState, sum(ps, "ns")/sum(ps, "states"))
		allocsPerState = append(allocsPerState, sum(ps, "mallocs")/sum(ps, "states"))
		wallN = append(wallN, sum(ps, "ns")/1e9)
		worst := 0.0
		for _, s := range ps {
			worst = max(worst, s.counts["level_ms_max"])
		}
		levelMax = append(levelMax, worst)
	}
	for _, ps := range serial.passes(call) {
		nsPerState1 = append(nsPerState1, sum(ps, "ns")/sum(ps, "states"))
		wall1 = append(wall1, sum(ps, "ns")/1e9)
	}
	measured, measured1 := median(nsPerState), median(nsPerState1)

	// Per-search decomposition: measured vs predicted ns per state.
	perSearch := func(l *spanLog) map[string]float64 {
		samples := map[string][]float64{}
		for _, s := range l.spans {
			samples[s.key] = append(samples[s.key], float64(s.dur.Nanoseconds())/s.counts["states"])
		}
		per := map[string]float64{}
		for key, xs := range samples {
			per[key] = median(xs)
		}
		return per
	}
	perN, per1 := perSearch(full), perSearch(serial)
	for _, sp := range b.specs {
		m := per1[sp.name]
		fmt.Fprintf(o.out, "decomposition %s: states=%d measured_ns_per_state=%.1f (%d workers) measured_ns_per_state_1w=%.1f predicted_ns_per_state=%.1f mcheck.residual_frac=%.4f\n",
			sp.name, sp.states, perN[sp.name], o.workers, m, pred[sp.name], (m-pred[sp.name])/m)
	}
	r.set("mcheck.ns_per_state", "ns", measured)
	r.set("mcheck.allocs_per_state", "count", median(allocsPerState))
	r.set("mcheck.predicted_ns_per_state", "ns", predicted)
	r.set("mcheck.residual_frac", "fraction", (measured1-predicted)/measured1)
	r.set("mcheck.level_ms.max", "ms", median(levelMax))
	r.set("mcheck.parallel_efficiency", "fraction", median(wall1)/(float64(o.workers)*median(wallN)))
	r.set("bench.trace_overhead_frac", "fraction", median(wallN)/median(plain)-1)

	// Logical search shape, identical on every pass: take the last one.
	lastSpans := full.passes(call)
	r.set("mcheck.levels", "count", sum(lastSpans[len(lastSpans)-1], "levels"))
	var peak float64
	for _, s := range lastSpans[len(lastSpans)-1] {
		peak = max(peak, s.counts["peak_frontier"])
	}
	r.set("mcheck.peak_frontier", "count", peak)
	var symGroup int
	var vBytes, vEntries, spillBytes, spillRuns, compactions, pruned, reducedStates float64
	for _, run := range last.runs {
		v := run.res.Visited
		vBytes += float64(v.Bytes)
		vEntries += float64(v.Entries)
		spillBytes += float64(v.SpillBytes)
		spillRuns += float64(v.SpillRuns)
		compactions += float64(v.Compactions)
		symGroup = max(symGroup, run.res.SymmetryGroup)
		if run.spec.red != mcheck.RedNone {
			pruned += float64(run.res.StatesPruned)
			reducedStates += float64(run.res.States)
		}
		// sim.canonical_encode_ns must time the permutation set the
		// search quotients by.
		if run.spec.red.Symmetry() {
			var err error
			if got := len(perms[run.spec.net]) + 1; got != run.res.SymmetryGroup {
				err = fmt.Errorf("benchmark derives a symmetry group of %d, the search uses %d", got, run.res.SymmetryGroup)
			}
			r.check(run.spec.name+" symmetry set", err, o.log)
		}
	}
	r.set("mcheck.visited_bytes_per_entry", "B", vBytes/vEntries)
	r.set("mcheck.spill_bytes", "B", spillBytes)
	r.set("mcheck.spill_runs", "count", spillRuns)
	r.set("mcheck.compactions", "count", compactions)
	r.set("mcheck.symmetry_group", "count", float64(symGroup))
	if pruned > 0 {
		r.set("mcheck.pruned_frac", "fraction", pruned/(pruned+reducedStates))
	}
	fillLayers(r)
	return r, nil
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports each one; a metric whose layer the
// workload never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.step_ns", "ns"},
	{"sim.clone_ns", "ns"},
	{"sim.allocs_per_clone", "count"},
	{"sim.copyfrom_ns", "ns"},
	{"sim.encode_ns", "ns"},
	{"sim.decode_ns", "ns"},
	{"sim.canonical_encode_ns", "ns"},
	{"mcheck.ns_per_state", "ns"},
	{"mcheck.allocs_per_state", "count"},
	{"mcheck.predicted_ns_per_state", "ns"},
	{"mcheck.residual_frac", "fraction"},
	{"mcheck.levels", "count"},
	{"mcheck.peak_frontier", "count"},
	{"mcheck.level_ms.max", "ms"},
	{"mcheck.parallel_efficiency", "fraction"},
	{"mcheck.visited_bytes_per_entry", "B"},
	{"mcheck.spill_bytes", "B"},
	{"mcheck.spill_runs", "count"},
	{"mcheck.compactions", "count"},
	{"mcheck.pruned_frac", "fraction"},
	{"mcheck.symmetry_group", "count"},
	{"traffic.point_s", "s"},
	{"traffic.ns_per_cycle.unsat", "ns"},
	{"traffic.ns_per_cycle.sat", "ns"},
	{"telemetry.overhead_frac", "fraction"},
	{"telemetry.window_append_ns", "ns"},
	{"telemetry.sketch_add_ns", "ns"},
	{"bench.trace_overhead_frac", "fraction"},
}

// fillLayers reports 0 for every per-layer metric the workload did not
// exercise.
func fillLayers(r *result) {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}
