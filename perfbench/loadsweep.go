package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The loadsweep workload: cmd/loadtest's default sweep. An 8x8 mesh under
// dimension-order routing, uniform Bernoulli arrivals of 8-flit messages
// at rates 0.02..0.20 step 0.02, each point with an adaptive-stride
// telemetry collector feeding a 256 KiB Window and a per-source SLO bank.
const (
	sweepLength  = 8
	sweepWarmup  = 500
	sweepMeasure = 2000
	sweepDrain   = 20000
	sweepWindow  = 256 << 10
	sweepSLO     = "p99<=500"
	// pointSeedStride decorrelates the points' arrival streams; point i
	// runs with seed + i*pointSeedStride, as in cmd/loadtest.
	pointSeedStride = 1_000_003
	// probe is the point (rate 0.10) the traced run times with and without
	// its collector and whose frames and latencies it replays.
	probe = 4
)

// sweepRates is the grid cmd/loadtest builds from -rates 0.02:0.20:0.02,
// rounded the same way so each rate is the same float64.
func sweepRates() []float64 {
	var out []float64
	for i := 0; i < 10; i++ {
		out = append(out, math.Round((0.02+float64(i)*0.02)*1e9)/1e9)
	}
	return out
}

// sweep is the loadsweep set-up: the mesh, its routing, the traffic
// pattern, the rate grid and the SLO objectives.
type sweep struct {
	alg   routing.Algorithm
	net   *topology.Network
	pat   traffic.Pattern
	rates []float64
	slo   []telemetry.SLOObjective
}

func buildSweep() (*sweep, error) {
	grid := topology.NewMesh([]int{8, 8}, 1)
	slo, err := telemetry.ParseSLO(sweepSLO)
	if err != nil {
		return nil, err
	}
	alg := routing.DimensionOrder(grid)
	// Touch every route once so the routing set-up is paid here.
	n := grid.Network.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && alg.Path(topology.NodeID(s), topology.NodeID(d)) == nil {
				return nil, fmt.Errorf("no route %d -> %d", s, d)
			}
		}
	}
	return &sweep{alg: alg, net: grid.Network, pat: traffic.Uniform(n), rates: sweepRates(), slo: slo}, nil
}

// point is one rate point's outcome.
type point struct {
	rate float64
	res  traffic.LoadResult
	wall time.Duration
	sat  bool
	err  error
}

// pointOpts selects what a point run attaches besides the simulator.
type pointOpts struct {
	collector bool                   // telemetry collector + SLO bank
	onFrame   func(*telemetry.Frame) // observe each closed frame
	tracer    obsv.Tracer            // simulator event tracer
}

// runPoint runs rate point i.
func (sw *sweep) runPoint(seed int64, i int, po pointOpts) point {
	rate := sw.rates[i]
	l := traffic.Load{
		Alg: sw.alg, Pattern: sw.pat, Arrivals: traffic.Bernoulli(rate),
		Length: sweepLength, Warmup: sweepWarmup, Measure: sweepMeasure, Drain: sweepDrain,
		Seed: seed + int64(i)*pointSeedStride, Tracer: po.tracer,
	}
	if po.collector {
		l.Telemetry = telemetry.NewCollector(sw.net.NumChannels(), telemetry.Config{Adaptive: true, WindowBytes: sweepWindow})
		l.Telemetry.OnFrame = po.onFrame
		l.Bank = telemetry.NewBank(sw.net.NumNodes())
	}
	t0 := time.Now()
	r, err := l.Run()
	p := point{rate: rate, res: r, wall: time.Since(t0), err: err}
	if err != nil {
		return p
	}
	if l.Bank != nil && l.Bank.Evaluate(sw.slo) == nil {
		p.err = fmt.Errorf("SLO evaluation returned no report")
	}
	// cmd/loadtest's rule: deadlocked, or accepted measurably less than
	// was offered during the window.
	p.sat = r.Deadlocked || (r.OfferedFlits > 0 && float64(r.AcceptedFlits) < 0.90*float64(r.OfferedFlits))
	return p
}

// sweepPass runs every rate point, at most workers at a time, and
// returns the points in rate order and the pass wall time. With a span
// log, each point is recorded as a "traffic.Load.Run" span of pass trace.
// Points start highest rate first: higher rates simulate more cycles, and
// starting the longest points first keeps the workers evenly loaded to
// the end, so the pass time does not hinge on which worker picks up the
// last, longest point.
func (sw *sweep) sweepPass(seed int64, workers int, spans *spanLog, trace int) ([]point, time.Duration) {
	pts := make([]point, len(sw.rates))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := len(sw.rates) - 1; i >= 0; i-- {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			pts[i] = sw.runPoint(seed, i, pointOpts{collector: true})
			spans.add(pointSpan(trace, "traffic.Load.Run", pts[i]))
		}(i)
	}
	wg.Wait()
	return pts, time.Since(t0)
}

// pointSpan records one rate point's Load.Run call.
func pointSpan(trace int, name string, p point) span {
	sat := 0.0
	if p.sat {
		sat = 1
	}
	return span{pass: trace, name: name, key: fmt.Sprint(p.rate), dur: p.wall,
		counts: map[string]float64{"cycles": float64(p.res.Cycles), "sat": sat}}
}

// pointKey is the deterministic part of a point's result that the output
// check compares.
type pointKey struct {
	cycles, delivered, p99 int
}

func keyOf(p point) pointKey {
	return pointKey{cycles: p.res.Cycles, delivered: p.res.Delivered, p99: p.res.P99Latency}
}

// saturationRate is the first saturated rate of a sweep, 0 for none.
func saturationRate(pts []point) float64 {
	for _, p := range pts {
		if p.sat {
			return p.rate
		}
	}
	return 0
}

// sweepDigest hashes every point's key and the saturation rate.
func sweepDigest(pts []point) uint64 {
	h := fnv.New64a()
	for _, p := range pts {
		k := keyOf(p)
		fmt.Fprintf(h, "%d/%d/%d;", k.cycles, k.delivered, k.p99)
	}
	fmt.Fprintf(h, "sat=%g", saturationRate(pts))
	return h.Sum64()
}

type sweepBench struct {
	o   options
	sw  *sweep
	res *result
	// ref is the first pass's point keys; every later pass must match it.
	ref []pointKey
}

// check verifies one pass: each point is internally consistent and
// matches the first pass, and the sweep matches the recorded digest for
// this seed when one exists. Each point is one operation.
func (b *sweepBench) check(pts []point) {
	var digestErr error
	if want, ok := sweepDigests[b.o.seed]; ok {
		if got := sweepDigest(pts); got != want {
			digestErr = fmt.Errorf("sweep digest %016x, recorded %016x", got, want)
		}
	}
	first := b.ref == nil
	for i, p := range pts {
		var ref *pointKey
		if !first {
			ref = &b.ref[i]
		}
		err := pointErr(p, ref)
		if p.err == nil && digestErr != nil {
			err = digestErr
		}
		b.res.check(fmt.Sprintf("loadsweep rate %g", p.rate), err, b.o.log)
		if first {
			b.ref = append(b.ref, keyOf(p))
		}
	}
}

// checkProbe verifies an extra run of the probe point against the first
// pass's result for it. Each such run is one operation.
func (b *sweepBench) checkProbe(what string, p point) point {
	b.res.check(fmt.Sprintf("loadsweep probe %s rate %g", what, p.rate), pointErr(p, &b.ref[probe]), b.o.log)
	return p
}

// pointErr checks one point: it ran, did not deadlock, balanced its
// message accounting and, given a reference, reproduced its result.
func pointErr(p point, ref *pointKey) error {
	r := p.res
	switch {
	case p.err != nil:
		return p.err
	case r.Deadlocked:
		return fmt.Errorf("deadlocked at cycle %d under deadlock-free routing", r.DeadlockCycle)
	case r.Injected+r.Backlog != r.Generated || r.Delivered > r.Injected:
		return fmt.Errorf("message accounting: generated %d, injected %d, backlog %d, delivered %d",
			r.Generated, r.Injected, r.Backlog, r.Delivered)
	case ref != nil && keyOf(p) != *ref:
		return fmt.Errorf("result %+v differs from the first pass's %+v", keyOf(p), *ref)
	}
	return nil
}

func cyclesOf(pts []point) float64 {
	n := 0
	for _, p := range pts {
		n += p.res.Cycles
	}
	return float64(n)
}

func runLoadsweep(o options) (*result, error) {
	sw, setup, err := timeSetup(o, buildSweep)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{o: o, sw: sw, res: &result{}}
	if o.trace {
		return b.traced()
	}
	var walls, rates, allocs []float64
	start := time.Now()
	for n := 0; until(start, n, o.seconds); n++ {
		h := readHeap()
		pts, wall := sw.sweepPass(o.seed, o.workers, nil, 0)
		bytes, _ := h.since()
		b.check(pts)
		walls = append(walls, wall.Seconds())
		rates = append(rates, cyclesOf(pts)/wall.Seconds())
		allocs = append(allocs, bytes/(1<<20))
	}
	r := b.res
	r.set("setup_s", "s", setup)
	r.set("wall_s", "s", median(walls))
	r.set("sim_cycles_per_s", "1/s", median(rates))
	// A copy of sim_cycles_per_s, printed because every metric is printed
	// on every workload: each simulated cycle is one network state.
	r.set("states_per_s", "1/s", median(rates))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("alloc_mb", "MB", median(allocs))
	return r, nil
}

// latencyTap records the delivery latencies a simulator reports.
type latencyTap struct{ lat []int }

func (t *latencyTap) Event(ev obsv.Event) {
	if ev.Kind == obsv.KindDeliver {
		t.lat = append(t.lat, ev.N)
	}
}

// traced is the per-layer run of loadsweep: the sim layer on warm-mesh
// snapshots below and above saturation, then, until the measurement time
// is used, a traced pass (a span per point), an untraced pass, and the
// probe point with and without its collector (a span each). The traffic
// and telemetry overhead metrics come from those spans. Finally the probe
// point's own frames and latencies are replayed into a fresh Window and
// Sketch.
func (b *sweepBench) traced() (*result, error) {
	o, sw, r := b.o, b.sw, b.res
	rng := rand.New(rand.NewSource(o.seed))

	var sims simCosts
	for _, rate := range []float64{sw.rates[0], sw.rates[len(sw.rates)-1]} {
		states, err := sampleMeshStates(sw.alg, sw.pat, rate, sweepLength, sweepWarmup, 8, 64, rng)
		if err != nil {
			return nil, err
		}
		// Random traffic has no scenario symmetry: the canonical encoding
		// is the plain one.
		c, err := timeSim(states, nil, 15)
		if err != nil {
			return nil, err
		}
		sims.addWeighted(c, 0.5)
	}
	sims.report(r)

	spans := &spanLog{}
	var tracedWalls, plainWalls []float64
	start := time.Now()
	for n := 0; until(start, n, o.seconds); n++ {
		pts, wall := sw.sweepPass(o.seed, o.workers, spans, n)
		b.check(pts)
		tracedWalls = append(tracedWalls, wall.Seconds())
		pts, wall = sw.sweepPass(o.seed, o.workers, nil, 0)
		b.check(pts)
		plainWalls = append(plainWalls, wall.Seconds())

		p := b.checkProbe("with collector", sw.runPoint(o.seed, probe, pointOpts{collector: true}))
		spans.add(pointSpan(n, "probe.collector", p))
		p = b.checkProbe("without collector", sw.runPoint(o.seed, probe, pointOpts{}))
		spans.add(pointSpan(n, "probe.bare", p))
	}

	var unsat, sat []float64
	for _, s := range spans.spans {
		if s.name != "traffic.Load.Run" {
			continue
		}
		perCycle := float64(s.dur.Nanoseconds()) / s.counts["cycles"]
		if s.counts["sat"] == 1 {
			sat = append(sat, perCycle)
		} else {
			unsat = append(unsat, perCycle)
		}
	}

	var frames []*telemetry.Frame
	tap := &latencyTap{}
	b.checkProbe("with latency tap", sw.runPoint(o.seed, probe, pointOpts{collector: true, tracer: tap, onFrame: func(f *telemetry.Frame) {
		c := *f
		c.Busy = append([]uint32(nil), f.Busy...)
		c.Occ = append([]uint32(nil), f.Occ...)
		c.Blocked = append([]uint32(nil), f.Blocked...)
		frames = append(frames, &c)
	}}))
	var appendNs, addNs []float64
	for round := 0; round < 15; round++ {
		w := telemetry.NewWindow(sw.net.NumChannels(), sweepWindow)
		t0 := time.Now()
		for _, f := range frames {
			w.Append(f)
		}
		appendNs = append(appendNs, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
		sk := telemetry.NewSketch()
		t0 = time.Now()
		for _, v := range tap.lat {
			sk.Add(v)
		}
		addNs = append(addNs, float64(time.Since(t0).Nanoseconds())/float64(len(tap.lat)))
		if sk.Count() != int64(len(tap.lat)) || w.Stats().Frames == 0 {
			return nil, fmt.Errorf("telemetry replay lost data")
		}
	}
	r.set("traffic.point_s", "s", median(spans.durations("traffic.Load.Run")))
	r.set("traffic.ns_per_cycle.unsat", "ns", median(unsat))
	r.set("traffic.ns_per_cycle.sat", "ns", median(sat))
	r.set("telemetry.overhead_frac", "fraction", median(spans.durations("probe.collector"))/median(spans.durations("probe.bare"))-1)
	r.set("telemetry.window_append_ns", "ns", median(appendNs))
	r.set("telemetry.sketch_add_ns", "ns", median(addNs))
	r.set("bench.trace_overhead_frac", "fraction", median(tracedWalls)/median(plainWalls)-1)
	fillLayers(r)
	return r, nil
}

// sweepDigests holds sweepDigest for seeds 0..127, recorded with
// TestRecordSweepDigests. A change that alters any sweep result fails the
// check until the table is recorded again.
var sweepDigests = map[int64]uint64{
	0:   0x8b02131b9bfc8149,
	1:   0x195b5b958c142837,
	2:   0xf3624f0a234a7587,
	3:   0xe7675bb30d13a664,
	4:   0x62a32790de0bb325,
	5:   0xe4985d37a80d55c7,
	6:   0xb3c37667b6a4fdb0,
	7:   0x59f50dd9722fed9b,
	8:   0x3ef79973a7cf8894,
	9:   0x5c87a54f3128c793,
	10:  0xef85e332e9b91d83,
	11:  0x33bae9b1adaa3ca4,
	12:  0x5b7441771dee4c3c,
	13:  0xe292b762e3597a5e,
	14:  0x1d8e6e8dae5d5b57,
	15:  0x352203a48925d309,
	16:  0xa3673f9c2313c4e8,
	17:  0x9d353ca7ed5177a6,
	18:  0xf80fcda446a5b55c,
	19:  0xaf47f61a1786dc04,
	20:  0xcaeee14f133eb851,
	21:  0x34980da70f114330,
	22:  0x4884e4a1a1001ab5,
	23:  0x65c93e36de1287e8,
	24:  0x773c5a81f9e91051,
	25:  0xdc6f8ec85f7b0d9f,
	26:  0x91047a584560f76f,
	27:  0x35bc7b7f7fad6536,
	28:  0xe684eff94d0b57f9,
	29:  0x45580d77559de1a6,
	30:  0x9012beea07608d06,
	31:  0xc12bac27af8db387,
	32:  0x8b38059ab7007fa9,
	33:  0x184b0d3d72006672,
	34:  0x1dbb1c77412e697a,
	35:  0x171b55cd5e20b2ec,
	36:  0x1046ca922ed10699,
	37:  0x30acf277cb49cfed,
	38:  0x639c5ddb62360b82,
	39:  0xa4b537b68aeb2557,
	40:  0xf84c3f0aa46fe506,
	41:  0x08e5c1c8b8177207,
	42:  0xd40c2a7787baba6e,
	43:  0xb55d9444ccd89629,
	44:  0x31de8060ba5cab51,
	45:  0x2bb087cd70efad19,
	46:  0x10dbf3cb251f7b69,
	47:  0x5f27fcd199250027,
	48:  0x493e09b783601cf0,
	49:  0x7ee4138eaf2201f1,
	50:  0x500ab017299cf8b6,
	51:  0x2ee5aea1d9b67fa6,
	52:  0x8423a52f7bb561c4,
	53:  0xa3bbaa0540da989e,
	54:  0xca7de39ac79179a0,
	55:  0x013218ae342de30f,
	56:  0x4fb4013ce7bf62ee,
	57:  0xa7a7345ab133d780,
	58:  0x83f0aec69aee1240,
	59:  0x429d50470767384b,
	60:  0x5380092e9e0a355d,
	61:  0xa513dce70fcdef19,
	62:  0xe63f5386cf5eff49,
	63:  0xa7e34e2cd9c20d6c,
	64:  0xa3363ad0127449e8,
	65:  0xbb90e341d7c6bbf0,
	66:  0x6cbdf9c15ffa16ab,
	67:  0xb3e11e4412ffb71d,
	68:  0x2f622b0ceb2d6471,
	69:  0x0fd99ad8448042f3,
	70:  0x3df3b06ef27742c9,
	71:  0x3afd5b78d31fe721,
	72:  0x9ff6757cd6244918,
	73:  0xe715249b292946cc,
	74:  0x338b395a71b2f8a2,
	75:  0xb3dd2599deb35a59,
	76:  0x6ad1bb902474fc83,
	77:  0x51ada98ed0b07069,
	78:  0x4eb21a09ce3bc0c1,
	79:  0xdbaecb0df47a7e20,
	80:  0xc84995e21e839673,
	81:  0x7acfbaea29090aaf,
	82:  0x73c20f84bdd9bfa3,
	83:  0x9ab5b19638ef7396,
	84:  0x9bfc85b8b601e904,
	85:  0xed79e1286a753665,
	86:  0xd9d141b5de6f0465,
	87:  0x5a3733dcb95145b3,
	88:  0x068217e92863c232,
	89:  0xea27184948fc8c23,
	90:  0xbb7c60c9b1908388,
	91:  0xe38fefae87f1c830,
	92:  0xd2e2c3807e666a2a,
	93:  0xc094f31381877283,
	94:  0xaeddcd9e17409a93,
	95:  0x59a03bdf01d2061c,
	96:  0xf0136af116925fbc,
	97:  0xc1440336e62cffe1,
	98:  0xa9207c8bfe70ed83,
	99:  0x5d74b81369452635,
	100: 0x2f87ab8d7ce33fac,
	101: 0x4103183d728f4cc1,
	102: 0x808487966ad59b1f,
	103: 0xe43bf56e25a651b4,
	104: 0x7a25d48cb8ddbd5b,
	105: 0x2fdf0c1d1542b136,
	106: 0xde7544e138b49d80,
	107: 0x23a718f2c1c967dd,
	108: 0x17bb823f80364f6b,
	109: 0xd1a9aca7d88c453f,
	110: 0x7188775d91e69b36,
	111: 0x9aac1c0ebad64c7b,
	112: 0x41b0843dacab12b2,
	113: 0x5b868fdc5558128a,
	114: 0x5ab30a273b353993,
	115: 0x63e5aa8acf6bcf87,
	116: 0x529ac780cf6ce19c,
	117: 0x29987ab5aa712d46,
	118: 0x20d33d6798c6f0ce,
	119: 0x886dfaa7d2257ade,
	120: 0x6d8e469002367ee4,
	121: 0x890d991ce4878603,
	122: 0xbb8465103d6939fd,
	123: 0x0349e0ca740c4447,
	124: 0xd4310035088d0468,
	125: 0x9a0c78b18acf912a,
	126: 0xd22cc6c769cf3050,
	127: 0xb0aaf19452c1e7cc,
}
