package sim

import "repro/internal/obsv/telemetry"

// Stats aggregates delivery statistics for performance experiments.
type Stats struct {
	Messages   int
	Delivered  int
	Dropped    int     // messages removed by a drop recovery
	Retries    int     // total recovery resets across all messages
	Cycles     int     // current simulation cycle
	AvgLatency float64 // mean (deliveredAt - injectAt + 1) over delivered messages
	MaxLatency int
	// P50/P95/P99 are nearest-rank latency percentiles over delivered
	// messages (0 when nothing was delivered), read from a telemetry.Sketch:
	// exact below 2^16 cycles, log-bucketed above.
	P50Latency int
	P95Latency int
	P99Latency int
	FlitsMoved int     // total flits consumed at destinations
	Throughput float64 // consumed flits per cycle
}

// DeliveredFraction returns the fraction of messages fully delivered.
func (st Stats) DeliveredFraction() float64 {
	if st.Messages == 0 {
		return 0
	}
	return float64(st.Delivered) / float64(st.Messages)
}

// Collect computes statistics from the simulator's current state. Latency
// counts from the cycle the header entered the network to the cycle the
// tail was consumed, inclusive.
func Collect(s *Sim) Stats {
	st := Stats{Messages: len(s.msgs), Cycles: s.now}
	var lat telemetry.Sketch
	for i := range s.msgs {
		m := &s.msgs[i]
		st.FlitsMoved += m.consumed
		st.Retries += m.retries
		if m.dropped {
			st.Dropped++
		}
		if m.delivered() {
			st.Delivered++
			lat.Add(m.deliveredAt - m.injectedAt + 1)
		}
	}
	st.AvgLatency = lat.Mean()
	st.MaxLatency = lat.Max()
	st.P50Latency = lat.Quantile(50)
	st.P95Latency = lat.Quantile(95)
	st.P99Latency = lat.Quantile(99)
	if s.now > 0 {
		st.Throughput = float64(st.FlitsMoved) / float64(s.now)
	}
	return st
}
