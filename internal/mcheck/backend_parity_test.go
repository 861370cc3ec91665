package mcheck

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/papernets"
	"repro/internal/waitfor"
)

// backendParityConfigs are the visited-set configurations that must be
// observationally identical to the default in-memory backend. The size is
// deliberately hostile: the spill budget is one byte, so every shard
// spills constantly and most probes hit disk runs.
func backendParityConfigs() []struct {
	name string
	cfg  VisitedConfig
} {
	return []struct {
		name string
		cfg  VisitedConfig
	}{
		{"spill", VisitedConfig{Backend: VisitedSpill, MemBudget: 1}},
	}
}

// TestVisitedBackendParity is the exactness contract of the pluggable
// visited layer: for every scenario, the disk-spilling backend at every
// worker count must reproduce the in-memory reference's verdict, state
// count, retained-encoding count and (for deadlocks) full witness byte
// for byte. CI runs the gen3 subtest under -race as the parity smoke.
func TestVisitedBackendParity(t *testing.T) {
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			refOpts := tc.opts
			refOpts.Parallelism = 1
			ref := Search(tc.sc, refOpts)
			for _, bc := range backendParityConfigs() {
				for _, workers := range []int{1, 3} {
					opts := tc.opts
					opts.Parallelism = workers
					opts.Visited = bc.cfg
					res := Search(tc.sc, opts)
					if res.Verdict != ref.Verdict {
						t.Fatalf("%s workers=%d: verdict %v != reference %v", bc.name, workers, res.Verdict, ref.Verdict)
					}
					if res.States != ref.States {
						t.Fatalf("%s workers=%d: states %d != reference %d", bc.name, workers, res.States, ref.States)
					}
					if res.PeakVisited != ref.PeakVisited {
						t.Fatalf("%s workers=%d: peak visited %d != reference %d",
							bc.name, workers, res.PeakVisited, ref.PeakVisited)
					}
					if ref.Verdict == VerdictDeadlock {
						if !reflect.DeepEqual(res.Trace, ref.Trace) {
							t.Fatalf("%s workers=%d: witness trace differs from reference", bc.name, workers)
						}
						if !reflect.DeepEqual(res.Deadlock.Cycle, ref.Deadlock.Cycle) {
							t.Fatalf("%s workers=%d: deadlock cycle %v != reference %v",
								bc.name, workers, res.Deadlock.Cycle, ref.Deadlock.Cycle)
						}
						s := Replay(tc.sc, res.Trace)
						if err := waitfor.Verify(s, res.Deadlock); err != nil {
							t.Fatalf("%s workers=%d: replayed witness invalid: %v", bc.name, workers, err)
						}
					}
				}
			}
		})
	}
}

// TestVisitedBackendReported pins the accounting surface: the result
// names the backend that ran and its counters are live.
func TestVisitedBackendReported(t *testing.T) {
	sc := ringScenario(2)

	mem := Search(sc, SearchOptions{})
	if mem.Visited.Backend != "mem" {
		t.Fatalf("default backend reported as %q", mem.Visited.Backend)
	}
	if mem.Visited.Entries != mem.PeakVisited || mem.Visited.Bytes <= 0 || mem.Visited.PeakShardEntries <= 0 {
		t.Fatalf("mem accounting implausible: %+v", mem.Visited)
	}

	// ring4's 56 states leave every shard under the minimum spill batch;
	// Figure 1's ~3k states guarantee real spills under a one-byte budget.
	scSpill := papernets.Figure1().Scenario
	memSpill := Search(scSpill, SearchOptions{})
	sp := Search(scSpill, SearchOptions{Visited: VisitedConfig{Backend: VisitedSpill, MemBudget: 1}})
	if sp.Visited.Backend != "spill" {
		t.Fatalf("spill backend reported as %q", sp.Visited.Backend)
	}
	if sp.Visited.SpillRuns <= 0 || sp.Visited.SpillBytes <= 0 || sp.Visited.SpilledEntries <= 0 {
		t.Fatalf("spill backend with a 1-byte budget never spilled: %+v", sp.Visited)
	}
	if sp.Visited.Entries != memSpill.Visited.Entries {
		t.Fatalf("spill distinct entries %d != mem %d", sp.Visited.Entries, memSpill.Visited.Entries)
	}
	if sp.Visited.Bytes >= memSpill.Visited.Bytes {
		t.Fatalf("spill resident bytes %d not below mem %d despite a 1-byte budget",
			sp.Visited.Bytes, memSpill.Visited.Bytes)
	}
}

// TestLivenessBackendParity: the DFS liveness engine shares the visited
// layer; on every parity scenario each backend must reproduce the mem
// backend's verdict, state count and retained encodings. The stores keep
// the bytes insert is given, so the one-byte spill budget pins that
// liveness hands them owned copies. CI runs it under -race.
func TestLivenessBackendParity(t *testing.T) {
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			ref := SearchLiveness(tc.sc, tc.opts)
			for _, bc := range backendParityConfigs() {
				opts := tc.opts
				opts.Visited = bc.cfg
				res := SearchLiveness(tc.sc, opts)
				if res.Verdict != ref.Verdict || res.States != ref.States || res.PeakVisited != ref.PeakVisited {
					t.Fatalf("%s: liveness %v/%d/%d != mem %v/%d/%d", bc.name,
						res.Verdict, res.States, res.PeakVisited, ref.Verdict, ref.States, ref.PeakVisited)
				}
			}
		})
	}
}

// TestReducedBatchParity: symmetry-reduced searches carry the states'
// own encodings in the frontier batch and key the visited set by the
// canonical ones. With every reduction on, one and three workers must
// agree on the verdict, state count, witness trace and Definition 6
// cycle, and the witness must replay.
func TestReducedBatchParity(t *testing.T) {
	for _, tc := range parityCases() {
		if tc.name != "gen3" && !strings.HasPrefix(tc.name, "figure3") {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			var ref SearchResult
			for _, workers := range []int{1, 3} {
				opts := tc.opts
				opts.Parallelism = workers
				opts.Reduction = RedAll
				res := Search(tc.sc, opts)
				if workers == 1 {
					ref = res
					if res.Verdict == VerdictDeadlock {
						if err := waitfor.Verify(Replay(tc.sc, res.Trace), res.Deadlock); err != nil {
							t.Fatalf("replayed witness invalid: %v", err)
						}
					}
					continue
				}
				if res.Verdict != ref.Verdict || res.States != ref.States {
					t.Fatalf("workers=%d: (%v, %d states) != one worker (%v, %d states)",
						workers, res.Verdict, res.States, ref.Verdict, ref.States)
				}
				if ref.Verdict != VerdictDeadlock {
					continue
				}
				if !reflect.DeepEqual(res.Trace, ref.Trace) {
					t.Fatalf("workers=%d: witness trace differs from one worker", workers)
				}
				if !reflect.DeepEqual(res.Deadlock.Cycle, ref.Deadlock.Cycle) {
					t.Fatalf("workers=%d: deadlock cycle %v != one worker %v",
						workers, res.Deadlock.Cycle, ref.Deadlock.Cycle)
				}
			}
		})
	}
}
