package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// simCosts is the cost of each simulator call, in ns per call, timed on
// one set of states.
type simCosts struct {
	step, clone, allocsPerClone, copyFrom, encode, decode, canon float64
}

// addWeighted accumulates w×c into acc (for weighted averages).
func (acc *simCosts) addWeighted(c simCosts, w float64) {
	acc.step += w * c.step
	acc.clone += w * c.clone
	acc.allocsPerClone += w * c.allocsPerClone
	acc.copyFrom += w * c.copyFrom
	acc.encode += w * c.encode
	acc.decode += w * c.decode
	acc.canon += w * c.canon
}

func (c simCosts) report(r *result) {
	r.set("sim.step_ns", "ns", c.step)
	r.set("sim.clone_ns", "ns", c.clone)
	r.set("sim.allocs_per_clone", "count", c.allocsPerClone)
	r.set("sim.copyfrom_ns", "ns", c.copyFrom)
	r.set("sim.encode_ns", "ns", c.encode)
	r.set("sim.decode_ns", "ns", c.decode)
	r.set("sim.canonical_encode_ns", "ns", c.canon)
}

// cloneSink keeps timed Clone results reachable so the calls are not
// optimized away.
var cloneSink *sim.Sim

// timeSim times every simulator call on the given states, rounds times
// over the whole set, and returns the per-call medians over the rounds.
// perms is the scenario's symmetry set for CanonicalEncodeTo (empty for
// a scenario without symmetries, where it is exactly EncodeTo).
func timeSim(states []*sim.Sim, perms []sim.Permutation, rounds int) (simCosts, error) {
	n := float64(len(states))
	work := make([]*sim.Sim, len(states))
	encs := make([][]byte, len(states))
	for i, s := range states {
		work[i] = s.Clone()
		s.EncodeTo(&encs[i])
	}
	var buf, scratch []byte
	var step, clone, allocs, copyFrom, encode, decode, canon []float64
	perCall := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / n }
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i, w := range work {
			w.CopyFrom(states[i])
		}
		copyFrom = append(copyFrom, perCall(t0))

		t0 = time.Now()
		for _, w := range work {
			w.Step()
		}
		step = append(step, perCall(t0))

		t0 = time.Now()
		for i, w := range work {
			if err := w.DecodeFrom(encs[i]); err != nil {
				return simCosts{}, err
			}
		}
		decode = append(decode, perCall(t0))

		t0 = time.Now()
		for _, s := range states {
			buf = buf[:0]
			s.EncodeTo(&buf)
		}
		encode = append(encode, perCall(t0))

		t0 = time.Now()
		for _, s := range states {
			buf = buf[:0]
			s.CanonicalEncodeTo(perms, &buf, &scratch)
		}
		canon = append(canon, perCall(t0))

		h := readHeap()
		t0 = time.Now()
		for _, s := range states {
			cloneSink = s.Clone()
		}
		clone = append(clone, perCall(t0))
		_, m := h.since()
		allocs = append(allocs, m/n)
	}
	// A decoded state must re-encode to the bytes it came from.
	for i, w := range work {
		buf = buf[:0]
		w.EncodeTo(&buf)
		if !slices.Equal(buf, encs[i]) {
			return simCosts{}, fmt.Errorf("sim: state %d does not survive DecodeFrom/EncodeTo", i)
		}
	}
	return simCosts{
		step: median(step), clone: median(clone), allocsPerClone: median(allocs),
		copyFrom: median(copyFrom), encode: median(encode), decode: median(decode), canon: median(canon),
	}, nil
}

// heldSim instantiates a search scenario the way the model checker
// starts it: every message held at its source, injection due at cycle 0.
func heldSim(sc sim.Scenario) *sim.Sim {
	s := sim.New(sc.Net, sc.Cfg)
	for _, m := range sc.Msgs {
		m.InjectAt = 0
		s.SetHeld(s.MustAdd(m), true)
	}
	return s
}

// sampleSearchStates collects n reachable states of a search scenario by
// seeded random walks from the held start: each cycle every held message
// is released with probability 1/2, then the network steps. A walk ends
// when every message is delivered or nothing moves any more.
func sampleSearchStates(sc sim.Scenario, n int, rng *rand.Rand) []*sim.Sim {
	root := heldSim(sc)
	var out []*sim.Sim
	for len(out) < n {
		s := root.Clone()
		for cyc := 0; cyc < 256 && len(out) < n; cyc++ {
			for id := 0; id < s.NumMessages(); id++ {
				if s.Held(id) && rng.Intn(2) == 0 {
					s.SetHeld(id, false)
				}
			}
			moved := s.Step().Moved
			out = append(out, s.Clone())
			if s.AllDelivered() || (!moved && s.Quiescent()) {
				break
			}
		}
	}
	return out
}

// sampleMeshStates collects n snapshots of a warm mesh under open-loop
// Bernoulli traffic at the given per-node message rate: after warm
// cycles, one snapshot every `every` cycles. A source whose injection
// port is still busy drops the arrival, so the generator stays simple;
// above saturation the ports are simply always busy.
func sampleMeshStates(alg routing.Algorithm, pat traffic.Pattern, rate float64, length, warm, every, n int, rng *rand.Rand) ([]*sim.Sim, error) {
	net := alg.Network()
	s := sim.New(net, sim.Config{})
	port := make([]int, net.NumNodes())
	for i := range port {
		port[i] = -1
	}
	var out []*sim.Sim
	for t := 0; len(out) < n; t++ {
		for src := range port {
			if rng.Float64() >= rate {
				continue
			}
			dst := pat(topology.NodeID(src), rng)
			if dst == topology.NodeID(src) || (port[src] >= 0 && !s.FullyInjected(port[src])) {
				continue
			}
			id, err := s.Add(sim.MessageSpec{
				Src: topology.NodeID(src), Dst: dst, Length: length,
				Path: alg.Path(topology.NodeID(src), dst), InjectAt: t,
			})
			if err != nil {
				return nil, err
			}
			port[src] = id
		}
		s.Step()
		if t >= warm && (t-warm)%every == 0 {
			out = append(out, s.Clone())
		}
	}
	return out, nil
}

// scenarioPerms derives the scenario's symmetries from the public
// topology automorphisms: each non-identity automorphism π paired with a
// message bijection σ that maps every message spec onto another one
// (same length, endpoints and path under π). Any subset of the symmetry
// group is valid for canonical encoding, so a greedy match suffices.
func scenarioPerms(sc sim.Scenario) []sim.Permutation {
	autos, _ := sc.Net.Automorphisms(64)
	var perms []sim.Permutation
	for _, a := range autos {
		if a.IsIdentity() {
			continue
		}
		n := len(sc.Msgs)
		p := sim.Permutation{MsgAt: make([]int, n), ChanTo: a.Chans, ChanAt: make([]topology.ChannelID, len(a.Chans))}
		for c, d := range a.Chans {
			p.ChanAt[d] = topology.ChannelID(c)
		}
		used := make([]bool, n)
		ok := true
		for i := 0; i < n && ok; i++ {
			j := imageOf(sc.Msgs, &sc.Msgs[i], a, used)
			if ok = j >= 0; ok {
				used[j] = true
				p.MsgAt[j] = i
			}
		}
		if ok {
			perms = append(perms, p)
		}
	}
	return perms
}

// imageOf returns an unused message whose spec is m's image under a, or -1.
func imageOf(msgs []sim.MessageSpec, m *sim.MessageSpec, a topology.Automorphism, used []bool) int {
	for j := range msgs {
		mj := &msgs[j]
		if used[j] || mj.Route != nil || m.Route != nil || mj.Length != m.Length || len(mj.Path) != len(m.Path) ||
			a.Nodes[m.Src] != mj.Src || a.Nodes[m.Dst] != mj.Dst {
			continue
		}
		same := true
		for k, c := range m.Path {
			if a.Chans[c] != mj.Path[k] {
				same = false
				break
			}
		}
		if same {
			return j
		}
	}
	return -1
}
