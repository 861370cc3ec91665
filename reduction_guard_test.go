package repro

// Guard for the state-space reduction's headline claim: on Gen(4) at its
// minimal deadlocking stall budget, the combined partial-order + symmetry
// reduction must keep the explored state count exactly at the committed
// baseline (it is deterministic) and at least 3x below the unreduced
// search recorded alongside it. Runs in short mode — the reduced search
// is the cheap one; the 3x denominator comes from the baseline file, not
// a live unreduced run.

import (
	"testing"

	"repro/internal/mcheck"
)

func TestReductionGuard_Gen4(t *testing.T) {
	c, red := baselineCase(t, "Gen4_Stall4_Reduced")
	unred, ok := readBaseline(t).Row("Gen4_Stall4")
	if !ok || red.States == 0 || unred.States == 0 {
		t.Fatal("baseline rows missing state counts; regenerate BENCH_mcheck.json with cmd/benchjson")
	}

	got, err := c.Probe(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reduction != mcheck.RedAll.String() {
		t.Fatalf("reduction = %q, want %v (gating cleared it?)", got.Reduction, mcheck.RedAll)
	}
	if got.States != red.States {
		t.Errorf("reduced Gen(4) explored %d states; baseline records %d — "+
			"if the reduction intentionally changed, regenerate BENCH_mcheck.json with cmd/benchjson",
			got.States, red.States)
	}
	if unred.States < 3*got.States {
		t.Errorf("reduction ratio %d/%d below the 3x floor", unred.States, got.States)
	}
}
