package sim_test

import (
	"sort"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sliceQuantile is the reference nearest-rank rule over a sorted sample
// slice: the smallest sample such that at least p% of samples are <= it.
func sliceQuantile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestCollectMatchesSortedSlice runs random workloads on a 4x4 mesh and
// checks every latency field of Collect against the sorted per-message
// latencies, including runs where only part of the load is delivered.
func TestCollectMatchesSortedSlice(t *testing.T) {
	g := topology.NewMesh([]int{4, 4}, 1)
	alg := routing.DimensionOrder(g)
	for seed := int64(1); seed <= 6; seed++ {
		for _, rate := range []float64{0.05, 0.3} {
			w := traffic.Workload{Alg: alg, Pattern: traffic.Uniform(16), Rate: rate, Length: 4, Duration: 60, Seed: seed}
			msgs, err := w.Messages()
			if err != nil {
				t.Fatal(err)
			}
			s := sim.New(alg.Network(), sim.Config{})
			for _, m := range msgs {
				s.MustAdd(m)
			}
			s.Run(40 + 20*int(seed)) // short budgets leave some messages undelivered
			var lats []int
			total := 0
			for id := range msgs {
				if at := s.DeliveredAt(id); at >= 0 {
					lat := at - s.InjectedAt(id) + 1
					lats = append(lats, lat)
					total += lat
				}
			}
			sort.Ints(lats)
			want := sim.Stats{Delivered: len(lats)}
			if len(lats) > 0 {
				want.AvgLatency = float64(total) / float64(len(lats))
				want.MaxLatency = lats[len(lats)-1]
			}
			want.P50Latency = sliceQuantile(lats, 50)
			want.P95Latency = sliceQuantile(lats, 95)
			want.P99Latency = sliceQuantile(lats, 99)
			st := sim.Collect(s)
			got := sim.Stats{Delivered: st.Delivered, AvgLatency: st.AvgLatency, MaxLatency: st.MaxLatency,
				P50Latency: st.P50Latency, P95Latency: st.P95Latency, P99Latency: st.P99Latency}
			if got != want {
				t.Errorf("seed %d rate %v: Collect latency fields %+v, want %+v", seed, rate, got, want)
			}
		}
	}
}

// TestStatsNoDeliveries checks the zero-delivery path: percentiles,
// averages and fractions all stay zero rather than dividing by zero.
func TestStatsNoDeliveries(t *testing.T) {
	st := sim.Stats{Messages: 3}
	if f := st.DeliveredFraction(); f != 0 {
		t.Errorf("DeliveredFraction with nothing delivered = %v, want 0", f)
	}
	var empty sim.Stats
	if f := empty.DeliveredFraction(); f != 0 {
		t.Errorf("DeliveredFraction with no messages = %v, want 0", f)
	}
}
