package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/papernets"
	"repro/internal/waitfor"
)

// TestLivenessLocalDeadlockTwoRings is the local-deadlock acceptance case:
// a network whose ring A deadlocks while ring B traffic stays deliverable
// must yield VerdictLocalDeadlock with exactly ring A's channels as the
// blocked subnetwork, and the witness must replay.
func TestLivenessLocalDeadlockTwoRings(t *testing.T) {
	sc := papernets.LocalRings()
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictLocalDeadlock {
		t.Fatalf("verdict = %v; want local-deadlock", res.Verdict)
	}
	if res.Local == nil {
		t.Fatal("no local-deadlock witness")
	}
	if got, want := fmt.Sprint(res.Local.Blocked), "[0 1 2 3]"; got != want {
		t.Fatalf("blocked subnetwork = %v; want exactly ring A %v", got, want)
	}
	foundB := false
	for _, id := range res.Local.Live {
		if id == 4 {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("live set %v does not contain the ring B message", res.Local.Live)
	}
	s := Replay(sc, res.Trace)
	if err := waitfor.VerifyLocal(s, res.Local); err != nil {
		t.Fatalf("replayed witness: %v", err)
	}
}

// TestLivenessLivelockStaleSelection is the livelock acceptance case: the
// stale-selection scenario is deadlock-free under the plain engine but
// must yield a replayable lasso under the liveness engine, with the
// adaptive message and the oblivious message it blocks both starved.
func TestLivenessLivelockStaleSelection(t *testing.T) {
	sc := papernets.StaleSelection()
	plain := Search(sc, SearchOptions{})
	if plain.Verdict != VerdictNoDeadlock {
		t.Fatalf("plain verdict = %v; the scenario must be deadlock-free", plain.Verdict)
	}
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictLivelock {
		t.Fatalf("liveness verdict = %v; want livelock", res.Verdict)
	}
	if res.Lasso == nil {
		t.Fatal("no lasso witness")
	}
	if err := VerifyLasso(sc, res.Lasso); err != nil {
		t.Fatalf("lasso witness: %v", err)
	}
	starved := map[int]bool{}
	for _, id := range res.Lasso.Starved {
		starved[id] = true
	}
	if !starved[0] || !starved[1] {
		t.Fatalf("starved = %v; want both messages", res.Lasso.Starved)
	}
	// Replay the loop several times by hand: the encoding must be pinned
	// and no starved message's progress counter may ever change.
	head := ReplayLasso(sc, res.Lasso, 1)
	var want, got []byte
	head.EncodeTo(&want)
	p0, p1 := head.Progress(0), head.Progress(1)
	more := ReplayLasso(sc, res.Lasso, 4)
	more.EncodeTo(&got)
	if !bytes.Equal(want, got) {
		t.Fatal("loop iterations do not reproduce the loop head")
	}
	if more.Progress(0) != p0 || more.Progress(1) != p1 {
		t.Fatal("a starved message advanced across loop iterations")
	}
}

// TestLivenessPureRingIsGlobalDeadlock: when the cycle leaves nothing
// outside it deliverable, the verdict must stay the plain VerdictDeadlock
// — the deadlock is global, not local.
func TestLivenessPureRingIsGlobalDeadlock(t *testing.T) {
	sc := ringScenario(2)
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
	if res.Local != nil {
		t.Fatalf("unexpected local witness %v for a global deadlock", res.Local)
	}
	if res.Deadlock == nil {
		t.Fatal("no Definition 6 witness")
	}
	s := Replay(sc, res.Trace)
	if err := waitfor.Verify(s, res.Deadlock); err != nil {
		t.Fatalf("replayed witness: %v", err)
	}
}

// TestLivenessParity pins the liveness engine to the plain engine across
// every paper scenario and Gen(2..4). All of these are purely oblivious,
// where the two transition systems coincide, so the mapping is exact:
// plain no-deadlock ⇔ liveness no-deadlock (with identical state counts
// at stall budget 0, where neither engine recounts budget improvements),
// plain deadlock ⇔ liveness deadlock-or-local-deadlock, and livelock is
// impossible — oblivious messages have no selection to hold stale.
func TestLivenessParity(t *testing.T) {
	cases := parityCases()
	cases = append(cases, parityCase{
		name:  "gen4",
		sc:    papernets.GenK(4).Scenario,
		opts:  SearchOptions{StallBudget: 4, FreezeInTransitOnly: true},
		heavy: true,
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			plain := Search(tc.sc, tc.opts)
			liv := SearchLiveness(tc.sc, tc.opts)
			switch plain.Verdict {
			case VerdictNoDeadlock:
				if liv.Verdict != VerdictNoDeadlock {
					t.Fatalf("liveness verdict %v; plain engine proved no-deadlock", liv.Verdict)
				}
				if tc.opts.StallBudget == 0 && liv.States != plain.States {
					t.Fatalf("liveness explored %d states, plain %d; budget-0 spaces must match", liv.States, plain.States)
				}
			case VerdictDeadlock:
				if liv.Verdict != VerdictDeadlock && liv.Verdict != VerdictLocalDeadlock {
					t.Fatalf("liveness verdict %v; plain engine found a deadlock", liv.Verdict)
				}
				s := Replay(tc.sc, liv.Trace)
				if liv.Verdict == VerdictLocalDeadlock {
					if err := waitfor.VerifyLocal(s, liv.Local); err != nil {
						t.Fatalf("local witness: %v", err)
					}
				} else if liv.Deadlock != nil {
					if err := waitfor.Verify(s, liv.Deadlock); err != nil {
						t.Fatalf("deadlock witness: %v", err)
					}
				}
			default:
				t.Fatalf("plain verdict %v; parity cases must be decidable", plain.Verdict)
			}
		})
	}
}

// TestLivenessExhausted: the state cap applies to the liveness search
// exactly as it does to the plain one.
func TestLivenessExhausted(t *testing.T) {
	res := SearchLiveness(papernets.Figure1().Scenario, SearchOptions{MaxStates: 3})
	if res.Verdict != VerdictExhausted {
		t.Fatalf("verdict = %v; want exhausted", res.Verdict)
	}
}

// TestLivenessIgnoresReductions: a requested reduction is cleared and
// surfaced as a warning, never silently applied.
func TestLivenessIgnoresReductions(t *testing.T) {
	res := SearchLiveness(ringScenario(2), SearchOptions{Reduction: RedPOR})
	if res.Reduction != RedNone {
		t.Fatalf("reduction %v ran; liveness must explore the full space", res.Reduction)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("no warning about the ignored reduction")
	}
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
}

// TestLivenessLassoIsShortest pins the stale-selection witness: the
// breadth-first search reports the lasso with the shortest stem, two
// decisions to the loop head, and a one-decision self-loop.
func TestLivenessLassoIsShortest(t *testing.T) {
	res := SearchLiveness(papernets.StaleSelection(), SearchOptions{})
	if res.Lasso == nil {
		t.Fatalf("verdict = %v; want a livelock lasso", res.Verdict)
	}
	if len(res.Lasso.Stem) != 2 || len(res.Lasso.Loop) != 1 {
		t.Fatalf("lasso stem %d / loop %d; want stem 2 / loop 1", len(res.Lasso.Stem), len(res.Lasso.Loop))
	}
}

// TestLivenessWorkerParity: the liveness search runs on the parallel
// engine, so one, two and three workers must agree on the verdict, state
// count and every witness — trace, local deadlock and lasso — for the
// local-deadlock and livelock scenarios and every parity case (ring4 is
// the global-deadlock one). CI runs it under -race.
func TestLivenessWorkerParity(t *testing.T) {
	cases := []parityCase{
		{name: "localrings", sc: papernets.LocalRings()},
		{name: "staleselection", sc: papernets.StaleSelection()},
	}
	cases = append(cases, parityCases()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			var ref SearchResult
			for _, workers := range []int{1, 2, 3} {
				opts := tc.opts
				opts.Parallelism = workers
				res := SearchLiveness(tc.sc, opts)
				if res.Workers != workers {
					t.Errorf("workers=%d: result reports %d workers", workers, res.Workers)
				}
				if workers == 1 {
					ref = res
					continue
				}
				if res.Verdict != ref.Verdict || res.States != ref.States {
					t.Fatalf("workers=%d: (%v, %d states) != one worker (%v, %d states)",
						workers, res.Verdict, res.States, ref.Verdict, ref.States)
				}
				if !reflect.DeepEqual(res.Trace, ref.Trace) {
					t.Fatalf("workers=%d: witness trace differs from one worker", workers)
				}
				if !reflect.DeepEqual(res.Local, ref.Local) {
					t.Fatalf("workers=%d: local witness %v != one worker %v", workers, res.Local, ref.Local)
				}
				if !reflect.DeepEqual(res.Lasso, ref.Lasso) {
					t.Fatalf("workers=%d: lasso %+v != one worker %+v", workers, res.Lasso, ref.Lasso)
				}
			}
		})
	}
}
