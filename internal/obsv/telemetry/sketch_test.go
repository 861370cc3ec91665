package telemetry

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// sliceQuantile is the raw-sample nearest-rank rule the sketch replaces
// (the one traffic.Load used on its grow-forever latency slice): the
// smallest sample such that at least p% of samples are <= it.
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

// TestSketchQuantileExactInLinearRange: for any sample set within the
// lossless linear range the sketch must reproduce the raw-slice
// nearest-rank quantiles exactly — the property that keeps loadtest's
// JSON byte-identical after the slice-to-sketch swap.
func TestSketchQuantileExactInLinearRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		s := NewSketch()
		samples := make([]int, n)
		for i := range samples {
			samples[i] = rng.Intn(sketchLinearMax)
			s.Add(samples[i])
		}
		sort.Ints(samples)
		for _, p := range []int{0, 1, 25, 50, 90, 95, 99, 100} {
			if got, want := s.Quantile(p), sliceQuantile(samples, p); got != want {
				t.Fatalf("trial %d n=%d p%d: sketch %d, slice %d", trial, n, p, got, want)
			}
		}
		if got, want := s.Max(), samples[n-1]; got != want {
			t.Fatalf("Max = %d, want %d", got, want)
		}
		if got, want := s.Min(), samples[0]; got != want {
			t.Fatalf("Min = %d, want %d", got, want)
		}
	}
}

// TestSketchTailRelativeError: above the linear range the sketch is
// lossy but bounded — a quantile may overestimate by at most one
// sub-bucket width (relative error 1/sketchSubBuckets) and never
// underestimates the true nearest-rank value.
func TestSketchTailRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	var samples []int
	for i := 0; i < 5000; i++ {
		v := sketchLinearMax + rng.Intn(1<<28)
		samples = append(samples, v)
		s.Add(v)
	}
	sort.Ints(samples)
	for _, p := range []int{50, 95, 99} {
		want := sliceQuantile(samples, p)
		got := s.Quantile(p)
		if got < want {
			t.Fatalf("p%d: sketch %d underestimates true %d", p, got, want)
		}
		if float64(got-want) > float64(want)/float64(sketchSubBuckets)+1 {
			t.Fatalf("p%d: sketch %d vs true %d exceeds 1/%d relative error", p, got, want, sketchSubBuckets)
		}
	}
	// The top rank still reports the exact max.
	if got := s.Quantile(100); got != samples[len(samples)-1] {
		t.Fatalf("p100 = %d, want exact max %d", got, samples[len(samples)-1])
	}
}

// TestSketchLogIndexRoundTrip: every log bucket's inclusive upper bound
// must map back into that bucket, and bucket boundaries must be
// monotone — the invariants Quantile's conservative reporting relies on.
func TestSketchLogIndexRoundTrip(t *testing.T) {
	prev := sketchLinearMax - 1
	for i := 0; i < sketchLogBuckets-1; i++ { // last bucket clamps, skip
		up := logUpper(i)
		if logIndex(up) != i {
			t.Fatalf("bucket %d: upper bound %d maps to bucket %d", i, up, logIndex(up))
		}
		if up <= prev {
			t.Fatalf("bucket %d: upper bound %d not above previous %d", i, up, prev)
		}
		if logIndex(up+1) != i+1 {
			t.Fatalf("bucket %d: %d (upper+1) maps to bucket %d, want %d", i, up+1, logIndex(up+1), i+1)
		}
		prev = up
	}
	if logIndex(sketchLinearMax) != 0 {
		t.Fatalf("first out-of-linear value maps to bucket %d", logIndex(sketchLinearMax))
	}
}

// TestSketchMerge: merging two sketches must equal one sketch fed both
// streams, including the JSON rendering.
func TestSketchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, all := NewSketch(), NewSketch(), NewSketch()
	for i := 0; i < 3000; i++ {
		v := rng.Intn(1 << 20)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() || a.Max() != all.Max() || a.Min() != all.Min() {
		t.Fatalf("merge scalars diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Count(), a.Sum(), a.Max(), a.Min(), all.Count(), all.Sum(), all.Max(), all.Min())
	}
	if !bytes.Equal(a.AppendJSON(nil), all.AppendJSON(nil)) {
		t.Fatal("merged sketch JSON differs from single-stream sketch")
	}
}

// TestSketchJSONDeterministic: identical sample sequences render to
// identical bytes, and Reset returns the sketch to the empty rendering.
func TestSketchJSONDeterministic(t *testing.T) {
	feed := func(s *Sketch) {
		for i := 0; i < 1000; i++ {
			s.Add(i * 73 % 70000)
		}
	}
	a, b := NewSketch(), NewSketch()
	feed(a)
	feed(b)
	ja, jb := a.AppendJSON(nil), b.AppendJSON(nil)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical streams render differently:\n%s\n%s", ja, jb)
	}
	empty := NewSketch().AppendJSON(nil)
	a.Reset()
	if !bytes.Equal(a.AppendJSON(nil), empty) {
		t.Fatalf("Reset sketch renders %s, want %s", a.AppendJSON(nil), empty)
	}
}

// TestSketchEdgeCases: negative clamping, AddN weights, empty queries.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Quantile(50) != 0 || s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	s.Add(-5)
	if s.Min() != 0 || s.Max() != 0 || s.Count() != 1 {
		t.Fatalf("negative sample must clamp to 0: %+v", s)
	}
	s.AddN(10, 9)
	if s.Count() != 10 || s.Sum() != 90 {
		t.Fatalf("AddN: count %d sum %d", s.Count(), s.Sum())
	}
	if s.Quantile(50) != 10 {
		t.Fatalf("p50 of one 0 and nine 10s = %d, want 10", s.Quantile(50))
	}
	s.AddN(99, 0) // no-op
	if s.Count() != 10 {
		t.Fatal("AddN with n<=0 must be a no-op")
	}
}

// TestSketchMergeEmpty: empty⊕empty stays empty, and empty merges are
// identity in both directions.
func TestSketchMergeEmpty(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	a.Merge(b)
	if a.Count() != 0 || a.Sum() != 0 || a.Max() != 0 || a.Min() != 0 {
		t.Fatalf("empty+empty not empty: %+v", a)
	}
	if !bytes.Equal(a.AppendJSON(nil), NewSketch().AppendJSON(nil)) {
		t.Fatal("empty+empty renders differently from empty")
	}
	// empty ⊕ loaded == loaded; loaded ⊕ empty == loaded.
	load := func() *Sketch {
		s := NewSketch()
		for i := 1; i <= 100; i++ {
			s.Add(i * 977)
		}
		return s
	}
	want := load().AppendJSON(nil)
	le := load()
	le.Merge(NewSketch())
	if !bytes.Equal(le.AppendJSON(nil), want) {
		t.Fatal("loaded+empty changed the sketch")
	}
	el := NewSketch()
	el.Merge(load())
	if !bytes.Equal(el.AppendJSON(nil), want) {
		t.Fatal("empty+loaded != loaded")
	}
}

// TestSketchMergeDisjointOctaves: merging sketches whose samples occupy
// disjoint log octaves must preserve per-octave counts and min/max.
func TestSketchMergeDisjointOctaves(t *testing.T) {
	lo, hi := NewSketch(), NewSketch()
	// lo: tail octaves 2^17..2^18; hi: octaves 2^40..2^41 — no overlap.
	for i := 0; i < 500; i++ {
		lo.Add(1<<17 + i*131)
		hi.Add(1<<40 + i*1_000_003)
	}
	m := NewSketch()
	m.Merge(lo)
	m.Merge(hi)
	if m.Count() != 1000 {
		t.Fatalf("count %d, want 1000", m.Count())
	}
	if m.Sum() != lo.Sum()+hi.Sum() {
		t.Fatalf("sum %d, want %d", m.Sum(), lo.Sum()+hi.Sum())
	}
	if m.Min() != lo.Min() || m.Max() != hi.Max() {
		t.Fatalf("min/max %d/%d, want %d/%d", m.Min(), m.Max(), lo.Min(), hi.Max())
	}
	// The halves are cleanly separated, so p50 must fall in lo's range
	// and p51 onward in hi's.
	if q := m.Quantile(50); q < 1<<17 || q >= 1<<19 {
		t.Fatalf("p50 = %d escaped the low octaves", q)
	}
	if q := m.Quantile(90); q < 1<<40 {
		t.Fatalf("p90 = %d below the high octaves", q)
	}
}

// TestSketchMergeLinearBoundary: samples straddling the exact/log-linear
// boundary at 2^16 survive a merge with exact counts on the linear side.
func TestSketchMergeLinearBoundary(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	vals := []int{sketchLinearMax - 2, sketchLinearMax - 1, sketchLinearMax, sketchLinearMax + 1}
	for _, v := range vals {
		a.Add(v)
		b.Add(v)
	}
	a.Merge(b)
	if a.Count() != 8 {
		t.Fatalf("count %d, want 8", a.Count())
	}
	// Below the boundary the sketch is lossless: quantiles landing there
	// must return the exact values, doubled counts notwithstanding.
	if q := a.Quantile(25); q != sketchLinearMax-2 {
		t.Fatalf("p25 = %d, want exact %d", q, sketchLinearMax-2)
	}
	if q := a.Quantile(50); q != sketchLinearMax-1 {
		t.Fatalf("p50 = %d, want exact %d", q, sketchLinearMax-1)
	}
	// At and above the boundary values live in log buckets; the answer
	// may round up within the bucket but never below the true value.
	if q := a.Quantile(75); q < sketchLinearMax {
		t.Fatalf("p75 = %d, below the boundary value %d", q, sketchLinearMax)
	}
	if a.Max() != sketchLinearMax+1 {
		t.Fatalf("max %d, want %d", a.Max(), sketchLinearMax+1)
	}
}

// TestSketchMergeQuantileMonotonic: quantiles of a merged sketch are
// monotone in p, and each merged quantile is bracketed by the two input
// sketches' quantiles at that p (merging cannot extrapolate).
func TestSketchMergeQuantileMonotonic(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	for i := 0; i < 3000; i++ {
		a.Add(i * 37 % 50_000)     // linear-range mass
		b.Add(1 << 20 * (i%5 + 1)) // tail mass
		b.Add(i % 100)             // plus a low spike
	}
	m := NewSketch()
	m.Merge(a)
	m.Merge(b)
	prev := -1
	for p := 1; p <= 100; p++ {
		q := m.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone: p%d=%d < p%d=%d", p, q, p-1, prev)
		}
		prev = q
		// The merged quantile must lie within the envelope of the inputs'
		// full ranges, a safe bracketing for any mixture.
		if q < min(a.Quantile(1), b.Quantile(1)) || q > max(a.Max(), b.Max()) {
			t.Fatalf("p%d = %d outside the merged inputs' range", p, q)
		}
	}
}

// TestPercentileEdgeCases pins the nearest-rank rule on the boundary
// inputs a latency sketch sees: no samples (the zero-value Sketch), one
// sample, p0, p100, p over 100, and heavily tied samples.
func TestPercentileEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		samples []int
		p       int
		want    int
	}{
		{"empty p50", nil, 50, 0},
		{"empty p99", []int{}, 99, 0},
		{"single p50", []int{7}, 50, 7},
		{"single p99", []int{7}, 99, 7},
		{"single p0 clamps to first", []int{7}, 0, 7},
		{"single p100", []int{7}, 100, 7},
		{"two samples p50 is first", []int{3, 9}, 50, 3},
		{"two samples p51 is second", []int{3, 9}, 51, 9},
		{"all ties", []int{4, 4, 4, 4}, 95, 4},
		{"ties at median", []int{1, 5, 5, 5, 9}, 50, 5},
		{"ties at tail", []int{1, 2, 9, 9, 9, 9, 9, 9, 9, 9}, 99, 9},
		{"p99 of 100 is 99th", seq(100), 99, 99},
		{"p99 of 1000 is 990th", seq(1000), 99, 990},
		{"p50 of 10 is 5th", seq(10), 50, 5},
		{"p100 clamps to last", seq(10), 100, 10},
		{"p over 100 clamps to last", seq(10), 150, 10},
	}
	for _, tt := range tests {
		var s Sketch
		for _, v := range tt.samples {
			s.Add(v)
		}
		if got := s.Quantile(tt.p); got != tt.want {
			t.Errorf("%s: Quantile(%d) over %v = %d, want %d", tt.name, tt.p, tt.samples, got, tt.want)
		}
		if got := sliceQuantile(tt.samples, tt.p); got != tt.want {
			t.Errorf("%s: sliceQuantile disagrees: %d", tt.name, got)
		}
	}
}

// seq returns 1..n.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

// TestSketchFootprintFollowsSamples: a sketch holds buckets only up to the
// largest value it has seen, so short latencies cost a few hundred
// counters, not the whole linear range; a tail sample grows it to at most
// the full layout.
func TestSketchFootprintFollowsSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Sketch
	for i := 0; i < 5000; i++ {
		s.Add(rng.Intn(200))
	}
	if n := cap(s.counts); n > 256 {
		t.Fatalf("sketch of values < 200 holds %d buckets, want <= 256", n)
	}
	var m Sketch
	m.Merge(&s)
	if n := cap(m.counts); n > 256 {
		t.Fatalf("merge of a small sketch holds %d buckets, want <= 256", n)
	}
	s.Add(1 << 40)
	if n := cap(s.counts); n > sketchBuckets {
		t.Fatalf("sketch holds %d buckets, want <= %d", n, sketchBuckets)
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(50) != 0 {
		t.Fatal("Reset sketch is not empty")
	}
}
