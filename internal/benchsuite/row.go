package benchsuite

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// Row is one BENCH_mcheck.json record: a case's measured cost plus, for
// search cases, the deterministic facts its probe asserted.
type Row struct {
	Name         string `json:"name"`
	NsPerOp      int64  `json:"ns_per_op"`
	AllocsPerOp  int64  `json:"allocs_per_op"`
	BytesPerOp   int64  `json:"bytes_per_op"`
	States       int    `json:"states,omitempty"`
	StatesPerSec int64  `json:"states_per_sec,omitempty"`
	Verdict      string `json:"verdict,omitempty"`
	Reduction    string `json:"reduction,omitempty"`
	StatesPruned int    `json:"states_pruned,omitempty"`
	// Visited-set backend accounting, recorded for non-default backends.
	// Spill bytes vary by a few percent between runs: the spill backend
	// shards and orders its runs by a digest with a per-search random
	// seed.
	VisitedBackend string `json:"visited_backend,omitempty"`
	SpillBytes     int64  `json:"spill_bytes,omitempty"`
}

// SetTiming fills the row's measured columns from a benchmark result and
// derives states/sec from the per-op time and the probed state count.
func (r *Row) SetTiming(res testing.BenchmarkResult) {
	r.NsPerOp = res.NsPerOp()
	r.AllocsPerOp = res.AllocsPerOp()
	r.BytesPerOp = res.AllocedBytesPerOp()
	if r.NsPerOp > 0 && r.States > 0 {
		r.StatesPerSec = int64(float64(r.States) / (float64(r.NsPerOp) / 1e9))
	}
}

// Report is a BENCH_mcheck.json document. Its encoding is byte-stable:
// fixed row order, fixed field order, integral values, so diffs of the
// file read as perf deltas.
type Report struct {
	GoMaxProcs int   `json:"go_max_procs"`
	Workers    int   `json:"search_workers"`
	Rows       []Row `json:"benchmarks"`
}

// Marshal encodes the report as indented JSON ending in a newline.
func (r *Report) Marshal() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	return append(blob, '\n'), err
}

// Parse decodes a report.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchsuite: %w", err)
	}
	return &r, nil
}

// ReadFile reads and decodes the report at path.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Row returns the report's row named name.
func (r *Report) Row(name string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return Row{}, false
}
