// Package benchsuite is the repository's one benchmark registry. Each
// case is defined once here: the work it times, the verdict or state
// count it asserts, and whether it is too slow for -short. The root
// BenchmarkSuite runs every case under `go test -bench`, cmd/benchjson
// writes one BENCH_mcheck.json row per case, and the root guard tests
// hold the registry's searches to that file's budgets. The package also
// owns the BENCH_mcheck.json row schema (row.go).
package benchsuite

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/unreachable"
)

// Search is one exhaustive search of a case and the verdict it must
// reach.
type Search struct {
	Scenario sim.Scenario
	Options  mcheck.SearchOptions
	Want     mcheck.Verdict
}

// Case is one benchmark. A search case times its Searches, run in order
// as one op; any other case times its own body.
type Case struct {
	Name string
	// Slow marks cases whose single op takes long enough to bust a
	// -short run's budget.
	Slow     bool
	Searches []Search
	// Liveness runs the searches with mcheck.SearchLiveness instead of
	// mcheck.Search.
	Liveness bool
	// run is a non-search case's benchmark body: untimed setup, then b.N
	// ops, failing b on a wrong answer.
	run func(b *testing.B)
}

// Bench is the case's benchmark body.
func (c Case) Bench(b *testing.B) {
	b.ReportAllocs()
	if c.run != nil {
		c.run(b)
		return
	}
	for i := 0; i < b.N; i++ {
		if err := c.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Run performs the case's searches once, with mod (when non-nil) applied
// to each search's options, and reports the first wrong verdict.
func (c Case) Run(mod func(*mcheck.SearchOptions)) error {
	return c.search(mod, nil)
}

func (c Case) search(mod func(*mcheck.SearchOptions), visit func(mcheck.SearchResult)) error {
	engine := mcheck.Search
	if c.Liveness {
		engine = mcheck.SearchLiveness
	}
	for _, s := range c.Searches {
		opts := s.Options
		if mod != nil {
			mod(&opts)
		}
		res := engine(s.Scenario, opts)
		if res.Verdict != s.Want {
			return fmt.Errorf("%s: verdict %v; want %v", c.Name, res.Verdict, s.Want)
		}
		if visit != nil {
			visit(res)
		}
	}
	return nil
}

// Probe is Run that also returns the case's row without timings: the
// summed state count and, for a single search, its verdict, plus the
// reductions the searches applied and the visited-backend facts. A
// non-search case probes to a row holding only its name.
func (c Case) Probe(mod func(*mcheck.SearchOptions)) (Row, error) {
	row := Row{Name: c.Name}
	var red mcheck.Reduction
	err := c.search(mod, func(res mcheck.SearchResult) {
		row.States += res.States
		row.StatesPruned += res.StatesPruned
		red |= res.Reduction
		if v := res.Visited; v.Backend != "" && v.Backend != "mem" {
			row.VisitedBackend = v.Backend
			row.SpillBytes += v.SpillBytes
		}
	})
	if red != mcheck.RedNone {
		row.Reduction = red.String()
	}
	if len(c.Searches) == 1 {
		row.Verdict = c.Searches[0].Want.String()
	}
	return row, err
}

// Lookup returns the registry case named name.
func Lookup(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// stall is a Section 6 skew budget: k freezes, in-transit messages only.
func stall(k int) mcheck.SearchOptions {
	return mcheck.SearchOptions{StallBudget: k, FreezeInTransitOnly: true}
}

// reduced turns on both state-space reductions.
func reduced(o mcheck.SearchOptions) mcheck.SearchOptions {
	o.Reduction = mcheck.RedAll
	return o
}

func searchCase(name string, slow bool, sc sim.Scenario, opts mcheck.SearchOptions, want mcheck.Verdict) Case {
	return Case{Name: name, Slow: slow, Searches: []Search{{sc, opts, want}}}
}

// Cases returns the registry in its fixed order, which is the row order
// of BENCH_mcheck.json. Each call builds fresh scenarios.
func Cases() []Case {
	const (
		free     = mcheck.VerdictNoDeadlock
		deadlock = mcheck.VerdictDeadlock
	)
	fig1 := papernets.Figure1().Scenario
	var fig3, fig3Red []Search
	for l := byte('a'); l <= 'f'; l++ {
		// The stall-budget-0 ground truth: (a)-(d) need adversarial skew
		// or interposed copies to deadlock, (e) and (f) deadlock outright.
		want := free
		if l >= 'e' {
			want = deadlock
		}
		sc := papernets.Figure3(l).Scenario
		fig3 = append(fig3, Search{sc, mcheck.SearchOptions{}, want})
		fig3Red = append(fig3Red, Search{sc, reduced(mcheck.SearchOptions{}), want})
	}
	gen2, gen4 := papernets.GenK(2).Scenario, papernets.GenK(4).Scenario

	cases := []Case{
		// E1: Theorem 1 on Figure 1 — the CDG's single 14-channel cycle,
		// the exhaustive search, the static analysis that proves it
		// without search, and the search with a live trace sink.
		{Name: "E1_Figure1_CDG", run: figure1CDG},
		searchCase("E1_Figure1_Search", true, fig1, mcheck.SearchOptions{}, free),
		{Name: "E1_Figure1_Analyze", run: figure1Analyze},
		{Name: "E1_Figure1_SearchTraced", Slow: true, run: figure1SearchTraced},
		// E2: the Definition 7-9 property checkers.
		{Name: "E2_PropertyChecks", run: propertyChecks},
		// E3: the Section 6 skew variant of Figure 1 (deadlock at budget
		// 1, exercising freeze enumeration), and Theorem 3 on random
		// minimal algorithms.
		searchCase("E3_Figure1_Skew1", true, fig1, stall(1), deadlock),
		{Name: "E3_RandomMinimalAnalyze", Slow: true, run: randomMinimalAnalyze},
		// E4: Theorem 4, the two-sharer deadlock on Figure 2.
		searchCase("E4_Figure2_Search", false, papernets.Figure2().Scenario, mcheck.SearchOptions{}, deadlock),
		// E5: Theorem 5 on the six Figure 3 instances, classified and
		// searched (one op searches all six).
		{Name: "E5_Figure3_Classify", run: figure3Classify},
		{Name: "E5_Figure3_SearchAll", Slow: true, Searches: fig3},
	}
	// E6: Gen(k)'s minimal stall tolerance, decided by searching at
	// budgets k-1 and k.
	for k := 1; k <= 3; k++ {
		sc := papernets.GenK(k).Scenario
		cases = append(cases, Case{Name: fmt.Sprintf("E6_GenK/k=%d", k), Slow: true,
			Searches: []Search{{sc, stall(k - 1), free}, {sc, stall(k), deadlock}}})
	}
	cases = append(cases,
		searchCase("E6_Gen2_Stall2", true, gen2, stall(2), deadlock),
		// E7: the simulator — DOR on an 8x8 mesh under uniform load, and
		// raw stepping speed, bare and with the telemetry plane sampling.
		Case{Name: "E7_MeshWorkload", run: meshWorkload},
		Case{Name: "E7_SimThroughput", run: simThroughput(false)},
		Case{Name: "E7_SimThroughput_Telemetry", run: simThroughput(true)},
		// E8: the liveness engine over E1's workload.
		Case{Name: "E8_LivenessSearch", Slow: true, Liveness: true,
			Searches: []Search{{fig1, mcheck.SearchOptions{}, free}}},
		// E10: the out-of-core path — E1 through the spill backend under a
		// tiny resident budget, so the visited set cycles through sorted
		// runs on disk. Verdict and state count must match E1 exactly.
		searchCase("E10_SearchOutOfCore", true, fig1, mcheck.SearchOptions{Visited: mcheck.VisitedConfig{
			Backend: mcheck.VisitedSpill, MemBudget: 64 << 10,
		}}, free),
		Case{Name: "E11_TelemetryLongHorizon", run: telemetryLongHorizon},
		Case{Name: "EncodeTo", run: encodeTo},
		Case{Name: "TracedSimRun/untraced", run: tracedSimRun(false)},
		Case{Name: "TracedSimRun/traced", run: tracedSimRun(true)},
		Case{Name: "Loadtest_Saturation", run: loadtestSaturation},
		// Unreduced Gen(4) at its minimal deadlocking budget: the
		// denominator of the reduction-ratio guard.
		searchCase("Gen4_Stall4", true, gen4, stall(4), deadlock),
		// The same searches under both state-space reductions, plus the
		// larger Gen(5) instance the reductions make routine.
		searchCase("E1_Figure1_Search_Reduced", true, fig1, reduced(mcheck.SearchOptions{}), free),
		searchCase("E3_Figure1_Skew1_Reduced", true, fig1, reduced(stall(1)), deadlock),
		Case{Name: "E5_Figure3_SearchAll_Reduced", Slow: true, Searches: fig3Red},
		searchCase("E6_Gen2_Stall2_Reduced", true, gen2, reduced(stall(2)), deadlock),
		searchCase("Gen4_Stall4_Reduced", true, gen4, reduced(stall(4)), deadlock),
		searchCase("Gen5_Stall5_Reduced", true, papernets.GenK(5).Scenario, reduced(stall(5)), deadlock),
	)
	// Ablations of the design choices the paper calls out, each against
	// E1 (depth 1, minimal lengths, the state-space search). Deeper
	// buffers and longer messages keep Theorem 1's verdict.
	for _, depth := range []int{2, 4} {
		cases = append(cases, searchCase(fmt.Sprintf("Ablation_BufferDepth/depth=%d", depth), true,
			fig1.WithBufferDepth(depth), mcheck.SearchOptions{}, free))
	}
	for _, extra := range []int{2, 4} {
		lens := make([]int, len(fig1.Msgs))
		for i, m := range fig1.Msgs {
			lens[i] = m.Length + extra
		}
		cases = append(cases, searchCase(fmt.Sprintf("Ablation_MessageLength/extra=%d", extra), true,
			fig1.WithLengths(lens), mcheck.SearchOptions{}, free))
	}
	return append(cases,
		// A concrete Figure 1 run under adversarial priority arbitration
		// delivers, as it does under FIFO: Theorem 1 needs no arbiter
		// assumption. TracedSimRun/untraced is the FIFO row.
		Case{Name: "Ablation_Arbitration/priority", run: priorityArbitration},
		// The bounded schedule sweep: E1's verdict at a different cost.
		Case{Name: "Ablation_SearchStrategy/sweep", Slow: true, run: searchStrategySweep},
	)
}

func figure1CDG(b *testing.B) {
	alg := papernets.Figure1().Alg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles, _ := cdg.New(alg).Cycles(0)
		if len(cycles) != 1 || len(cycles[0]) != 14 {
			b.Fatalf("cycles = %d", len(cycles))
		}
	}
}

func figure1Analyze(b *testing.B) {
	alg := papernets.Figure1().Alg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := core.Analyze(alg, core.Options{}); rep.Verdict != core.DeadlockFree {
			b.Fatalf("verdict = %v", rep.Verdict)
		}
	}
}

// figure1SearchTraced is E1 with a JSONL trace sink attached: its delta
// against E1_Figure1_Search is the all-in cost of tracing a search.
func figure1SearchTraced(b *testing.B) {
	sc := papernets.Figure1().Scenario
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := obsv.NewJSONL(io.Discard)
		if res := mcheck.Search(sc, mcheck.SearchOptions{Tracer: s}); res.Verdict != mcheck.VerdictNoDeadlock {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func propertyChecks(b *testing.B) {
	algs := []routing.Algorithm{
		routing.DimensionOrder(topology.NewMesh([]int{4, 4}, 1)),
		routing.ECube(topology.NewHypercube(4)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range algs {
			if !routing.CheckAll(alg).SuffixClosed {
				b.Fatalf("%s not suffix-closed", alg.Name())
			}
		}
	}
}

// randomMinimalAnalyze is Theorem 3: no cycle of a random minimal
// oblivious algorithm may classify unreachable.
func randomMinimalAnalyze(b *testing.B) {
	net := topology.NewMesh([]int{3, 3}, 1).Network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.Analyze(routing.RandomMinimal(net, int64(i)), core.Options{})
		if !rep.Acyclic && rep.Verdict == core.DeadlockFree {
			b.Fatal("minimal routing classified an unreachable cycle")
		}
	}
}

// figure3Classify evaluates Theorem 5's conditions and the timing
// classifier on all six Figure 3 instances.
func figure3Classify(b *testing.B) {
	var cfgs []unreachable.Config
	for l := byte('a'); l <= 'f'; l++ {
		cfgs = append(cfgs, papernets.Figure3(l).Configuration())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		free := 0
		for _, cfg := range cfgs {
			if v, _ := unreachable.Classify(cfg); v == unreachable.FalseResourceCycle {
				if t5 := unreachable.Theorem5(cfg); !t5.Applicable || t5.Unreachable {
					free++
				}
			}
		}
		if free != 2 {
			b.Fatalf("unreachable figures = %d; want 2 (a and b)", free)
		}
	}
}

func meshWorkload(b *testing.B) {
	alg := routing.DimensionOrder(topology.NewMesh([]int{8, 8}, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := traffic.Workload{
			Alg: alg, Pattern: traffic.Uniform(64),
			Rate: 0.02, Length: 8, Duration: 200, Seed: int64(i),
		}
		if _, out, err := w.Run(sim.Config{}, 1_000_000); err != nil || out.Result != sim.ResultDelivered {
			b.Fatalf("outcome = %v (%v)", out.Result, err)
		}
	}
}

// simThroughput times one 64-flit message across a 16x16 mesh the way
// the search engine and the load sweeps run the simulator: a pooled
// instance recycled with CopyFrom, so steady-state stepping is what gets
// timed. Both variants must stay at 0 allocs/op. With telemetry, the
// collector samples at the default stride into a 2 KiB window that the
// warm-up drives past its first eviction, so the timed region recycles
// window blocks instead of growing the window.
func simThroughput(withTelemetry bool) func(b *testing.B) {
	return func(b *testing.B) {
		g := topology.NewMesh([]int{16, 16}, 1)
		src, dst := g.NodeAt([]int{0, 0}), g.NodeAt([]int{15, 15})
		proto := sim.New(g.Network, sim.Config{})
		proto.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 64, Path: routing.DimensionOrder(g).Path(src, dst)})
		s := sim.New(g.Network, sim.Config{})
		run := func() {
			s.CopyFrom(proto)
			if out := s.Run(10_000); out.Result != sim.ResultDelivered {
				b.Fatal(out.Result)
			}
		}
		run()
		if withTelemetry {
			col := telemetry.NewCollector(g.Network.NumChannels(), telemetry.Config{WindowBytes: 2 << 10})
			s.SetTelemetry(col)
			for i := 0; i < 20_000 && col.Window().Stats().Dropped == 0; i++ {
				run()
			}
			if st := col.Window().Stats(); st.Dropped == 0 {
				b.Fatalf("warm-up never evicted a window block (%+v)", st)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// telemetryLongHorizon prices the long-horizon telemetry plane itself:
// one collector fed on a monotone cycle clock, with adaptive stride and
// a delta-compressed window. One op is one closed frame — FrameEvery
// samples over a drifting hot set (mostly small deltas with occasional
// channel-set churn), the adapt step, the frame close and the window
// append — cycling through whole-block evictions once warm. It must stay
// at 0 allocs/op.
func telemetryLongHorizon(b *testing.B) {
	const (
		channels = 1024 // 16x16 mesh scale
		perFrame = 4
		hotSet   = 8
	)
	col := telemetry.NewCollector(channels, telemetry.Config{
		Stride: 4, FrameEvery: perFrame,
		Adaptive: true, MaxStride: 32, WindowBytes: 8 << 10,
	})
	cycle, flits := 0, int64(0)
	frame := func(i int) {
		for s := 0; s < perFrame; s++ {
			busy, occ, _ := col.Accum()
			for h := 0; h < hotSet; h++ {
				c := (i*7 + h*131) % channels
				busy[c]++
				occ[c] += 3
			}
			flits += 16
			cycle += col.CurrentStride()
			col.FinishSample(cycle, flits, hotSet)
		}
	}
	for i := 0; i < 400; i++ { // warm past the first block evictions
		frame(i)
	}
	if col.Window().Stats().Dropped == 0 {
		b.Fatal("window never evicted during warm-up")
	}
	if col.CurrentStride() <= col.Stride() {
		b.Fatal("stride never adapted during warm-up")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(i)
	}
}

// encodeTo times the binary state encoder on a mid-flight Figure 1
// state; internal/sim's TestEncodeToZeroAllocs asserts it allocates
// nothing.
func encodeTo(b *testing.B) {
	s := papernets.Figure1().Scenario.NewSim()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	buf := make([]byte, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		s.EncodeTo(&buf)
	}
	if len(buf) == 0 {
		b.Fatal("no encoding produced")
	}
}

// tracedSimRun runs the Figure 1 scenario on a fresh simulator, with
// every flit advance, acquire/release and wait-edge transition emitted
// to a JSONL sink when traced. Untraced, it is also the FIFO-arbitration
// row that Ablation_Arbitration/priority compares against.
func tracedSimRun(traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		sc := papernets.Figure1().Scenario
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sc.NewSim()
			if traced {
				s.SetTracer(obsv.NewJSONL(io.Discard))
			}
			if out := s.Run(10_000); out.Result != sim.ResultDelivered {
				b.Fatal(out.Result)
			}
		}
	}
}

// loadtestSaturation is the cmd/loadtest unit of work: one open-loop
// point (4x4 mesh, DOR, uniform Bernoulli arrivals below saturation),
// network construction included.
func loadtestSaturation(b *testing.B) {
	load := func() traffic.Load {
		g := topology.NewMesh([]int{4, 4}, 1)
		return traffic.Load{
			Alg: routing.DimensionOrder(g), Pattern: traffic.Uniform(g.Network.NumNodes()),
			Arrivals: traffic.Bernoulli(0.10), Length: 8,
			Warmup: 200, Measure: 500, Drain: 5000, Seed: 1,
		}
	}
	for i := 0; i < b.N; i++ {
		if r, err := load().Run(); err != nil || r.Deadlocked || r.Delivered == 0 {
			b.Fatalf("delivered=%d deadlocked=%v err=%v", r.Delivered, r.Deadlocked, err)
		}
	}
}

func priorityArbitration(b *testing.B) {
	sc := papernets.Figure1().Scenario
	sc.Cfg.Arbiter = sim.PriorityArbiter{Order: []int{1, 3, 0, 2}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sc.NewSim().Run(10_000); out.Result != sim.ResultDelivered {
			b.Fatalf("outcome = %v", out.Result)
		}
	}
}

func searchStrategySweep(b *testing.B) {
	sc := papernets.Figure1().Scenario
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mcheck.Sweep(sc, mcheck.SweepOptions{Window: 6, Arbiters: mcheck.AllPriorityArbiters(4)})
		if res.Deadlocks != 0 {
			b.Fatal("sweep found a deadlock")
		}
	}
}
