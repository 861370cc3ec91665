package telemetry

import (
	"math/bits"
	"strconv"
)

// Sketch bucket layout. Values in [0, sketchLinearMax) get exact
// width-1 buckets, so every latency a sub-saturation (and most
// saturated) runs produce is recorded losslessly and nearest-rank
// quantiles over the sketch are byte-identical to quantiles over the
// raw sample list. Values at or above the linear range fall into
// log-linear buckets — sketchSubBuckets per power of two — with a
// worst-case relative error of 1/sketchSubBuckets, which keeps the
// sketch bounded no matter how pathological the tail gets.
const (
	sketchLinearMax  = 1 << 16 // exact buckets for values 0..65535
	sketchSubBits    = 6
	sketchSubBuckets = 1 << sketchSubBits // log-linear buckets per octave
	sketchMaxExp     = 62                 // values above 2^62 clamp to the top bucket
	sketchLogBuckets = (sketchMaxExp - 16 + 1) * sketchSubBuckets
	sketchBuckets    = sketchLinearMax + sketchLogBuckets
)

// Sketch is a bounded streaming histogram of non-negative integer
// samples (latencies in cycles). Its bucket slice grows only to the
// largest bucket seen: a sketch of short latencies costs a few KiB, and
// no tail, however long the run, exceeds sketchBuckets counters. Count,
// sum, min, max and mean are exact. It is mergeable (Merge adds another
// sketch's buckets) and byte-deterministic: the bucket layout is pure
// integer arithmetic, AppendJSON emits fixed-key-order output, and two
// sketches fed the same sample sequence are identical byte for byte.
//
// The zero value is an empty sketch ready to use.
type Sketch struct {
	counts []uint32 // counts[bucketIndex(v)], up to the largest bucket seen
	count  int64
	sum    int64
	max    int
	min    int
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// bucketIndex maps a non-negative value to its bucket: the value itself
// in the linear range, a log-linear bucket above it.
func bucketIndex(v int) int {
	if v < sketchLinearMax {
		return v
	}
	return sketchLinearMax + logIndex(v)
}

// bucketValue is bucket i's representative: the exact value of a linear
// bucket, the upper bound of a log bucket.
func bucketValue(i int) int {
	if i < sketchLinearMax {
		return i
	}
	return logUpper(i - sketchLinearMax)
}

// logIndex maps a value >= sketchLinearMax to its log-linear bucket.
func logIndex(v int) int {
	u := uint64(v)
	exp := 63 - bits.LeadingZeros64(u) // floor(log2 v), >= 16
	if exp > sketchMaxExp {
		return sketchLogBuckets - 1
	}
	// The sub-bucket is the top sketchSubBits bits below the leading one.
	sub := int((u >> (uint(exp) - sketchSubBits)) & (sketchSubBuckets - 1))
	return (exp-16)*sketchSubBuckets + sub
}

// logUpper returns the inclusive upper bound of log bucket i: the largest
// value mapping to it, which Quantile reports as the bucket's
// representative (a conservative latency estimate).
func logUpper(i int) int {
	exp := i/sketchSubBuckets + 16
	sub := i % sketchSubBuckets
	base := uint64(1) << uint(exp)
	width := base >> sketchSubBits
	return int(base + uint64(sub+1)*width - 1)
}

// grow extends counts to n > len(counts) buckets. Capacity rounds up to a
// power of two, so rising samples reallocate O(log n) times. Counters past
// len are never written, so reslicing within capacity exposes only zeros.
func (s *Sketch) grow(n int) {
	if n > cap(s.counts) {
		c := make([]uint32, len(s.counts), min(1<<bits.Len(uint(n-1)), sketchBuckets))
		copy(c, s.counts)
		s.counts = c
	}
	s.counts = s.counts[:n]
}

// Add records one sample. Negative samples are clamped to 0.
func (s *Sketch) Add(v int) { s.AddN(v, 1) }

// AddN records n occurrences of sample v.
func (s *Sketch) AddN(v int, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(s.counts) {
		s.grow(i + 1)
	}
	s.counts[i] += uint32(n)
	if s.count == 0 || v < s.min {
		s.min = v
	}
	s.count += n
	s.sum += int64(v) * n
	if v > s.max {
		s.max = v
	}
}

// Merge adds every bucket of o into s. Both sketches share the bucket
// layout, so merging is exact.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.counts) > len(s.counts) {
		s.grow(len(o.counts))
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	s.count += o.count
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
}

// Reset empties the sketch without releasing its buckets.
func (s *Sketch) Reset() {
	clear(s.counts)
	s.count, s.sum, s.max, s.min = 0, 0, 0, 0
}

// Count returns the number of recorded samples.
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the exact sum of recorded samples.
func (s *Sketch) Sum() int64 { return s.sum }

// Max returns the exact largest recorded sample (0 when empty).
func (s *Sketch) Max() int { return s.max }

// Min returns the exact smallest recorded sample (0 when empty).
func (s *Sketch) Min() int { return s.min }

// Mean returns the exact arithmetic mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Quantile returns the nearest-rank p-th percentile: the smallest bucket
// value such that at least p% of samples are <= it. It is the one
// percentile rule in the repository, and it equals the sorted-slice rule
// exactly whenever the samples fall in the sketch's lossless linear range.
// Tail values report their bucket's upper bound; the very last sample
// reports the exact max.
func (s *Sketch) Quantile(p int) int {
	if s.count == 0 {
		return 0
	}
	rank := (int64(p)*s.count + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var seen int64
	for i, c := range s.counts {
		seen += int64(c)
		if seen >= rank {
			if seen == s.count {
				// The rank lands in the final occupied bucket; the exact
				// max is known and is never looser than the bucket bound.
				return s.max
			}
			return bucketValue(i)
		}
	}
	return s.max
}

// AppendJSON appends the sketch as one deterministic JSON object:
// summary scalars followed by the occupied buckets as [value, count]
// pairs (linear buckets report their exact value, log buckets their
// upper bound). Hand-rolled fixed key order — no maps, no reflection.
func (s *Sketch) AppendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, s.count, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, s.sum, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, int64(s.min), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, int64(s.max), 10)
	b = append(b, `,"p50":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(50)), 10)
	b = append(b, `,"p95":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(95)), 10)
	b = append(b, `,"p99":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(99)), 10)
	b = append(b, `,"buckets":[`...)
	first := true
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(bucketValue(i)), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ']')
	}
	b = append(b, `]}`...)
	return b
}
