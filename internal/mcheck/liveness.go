package mcheck

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// SearchLiveness is the liveness companion to Search: the same parallel,
// deterministic breadth-first engine over the same adversarial transition
// system, deciding three finer-grained properties than reachable global
// deadlock.
//
//   - Local deadlock: a reachable state contains a permanent Definition 6
//     cycle (every member an in-network oblivious message) while traffic
//     outside the blocked subnetwork can still be delivered. Reported as
//     VerdictLocalDeadlock with the exact blocked channel set as witness.
//     When the cycle forms but nothing outside it survives, the verdict
//     stays VerdictDeadlock — the whole network is dead.
//
//   - Livelock/starvation: a reachable cycle in the state graph along
//     which some in-flight message never advances. Every encoded
//     per-message quantity (injection, flit positions, consumption,
//     materialized route) is monotone under the step relation, so a loop
//     can never contain a transition that moves any flit, and a loop
//     cannot spend stall budget either: every lasso loop collapses to a
//     single state that some budget-free decision maps onto itself. The
//     search therefore checks each expanded state for such a self-loop.
//     Reported as VerdictLivelock with a replayable stem+loop witness;
//     breadth-first order makes the stem a shortest one.
//
// The plain enumeration cannot express a livelock at all: every decision
// it produces either moves a flit or spends budget. SearchLiveness
// therefore runs the enumerator with maskAll, which adds stale adaptive
// selections — the adversary may point an adaptive message at a busy
// candidate, stalling it for a cycle at no budget cost, the way a real
// selection function can keep offering a congested output. For purely
// oblivious scenarios maskAll adds nothing and the explored space is
// identical to Search's, which is what the liveness parity tests pin down.
//
// Like Search, the result is identical for every Parallelism value and
// visited backend, and Workers reports the worker count that ran. The
// search ignores reductions: partial-order and symmetry reduction
// preserve reachable deadlocks, not the cycle structure a lasso search
// depends on. A requested reduction is cleared and surfaced as a result
// warning.
func SearchLiveness(sc sim.Scenario, opts SearchOptions) SearchResult {
	return search(sc, opts, true)
}

// starvedIDs lists the in-network, undelivered messages of a state — the
// messages a state-graph loop through it starves.
func starvedIDs(s *sim.Sim) []int {
	var out []int
	for id := 0; id < s.NumMessages(); id++ {
		if s.InNetwork(id) {
			out = append(out, id)
		}
	}
	return out
}

// Lasso is a replayable livelock witness: drive the scenario along Stem to
// the loop head, then repeat Loop forever. Every iteration reproduces the
// loop head's encoding exactly, and no message in Starved ever advances.
type Lasso struct {
	// Stem is the decision sequence from the empty network to the loop
	// head.
	Stem []Decision
	// Loop returns the network to the loop head with every message's
	// Progress unchanged.
	Loop []Decision
	// Starved lists the in-network, undelivered messages at the loop
	// head; none of them moves a flit anywhere along the loop.
	Starved []int
}

// ReplayLasso re-executes a lasso witness on a fresh instance of the
// scenario: the stem once, then the loop n times. It returns the simulator
// positioned at the loop head after the final iteration, so callers can
// check encodings and Progress counters independently of the search.
func ReplayLasso(sc sim.Scenario, l *Lasso, n int) *sim.Sim {
	s := newHeldSim(sc)
	for _, d := range l.Stem {
		apply(s, d)
		s.StepWithPicks(d.Picks)
	}
	for i := 0; i < n; i++ {
		for _, d := range l.Loop {
			apply(s, d)
			s.StepWithPicks(d.Picks)
		}
	}
	return s
}

// VerifyLasso independently validates a livelock witness: replaying the
// stem must reach a loop head whose encoding recurs after each of two loop
// iterations, with every starved message in-network and its Progress
// counter frozen throughout. It returns an error describing the first
// violated clause, nil when the witness demonstrates a genuine livelock.
func VerifyLasso(sc sim.Scenario, l *Lasso) error {
	if l == nil || len(l.Loop) == 0 {
		return fmt.Errorf("mcheck: empty lasso")
	}
	if len(l.Starved) == 0 {
		return fmt.Errorf("mcheck: lasso starves no message")
	}
	s := ReplayLasso(sc, l, 0)
	var head, cur []byte
	s.EncodeTo(&head)
	prog := make(map[int]int, len(l.Starved))
	for _, id := range l.Starved {
		if !s.InNetwork(id) {
			return fmt.Errorf("mcheck: starved message m%d is not in-network at the loop head", id)
		}
		prog[id] = s.Progress(id)
	}
	for i := 1; i <= 2; i++ {
		for _, d := range l.Loop {
			apply(s, d)
			s.StepWithPicks(d.Picks)
		}
		cur = cur[:0]
		s.EncodeTo(&cur)
		if !bytes.Equal(head, cur) {
			return fmt.Errorf("mcheck: loop iteration %d does not reproduce the loop head", i)
		}
		for _, id := range l.Starved {
			if got := s.Progress(id); got != prog[id] {
				return fmt.Errorf("mcheck: starved message m%d advanced (progress %d -> %d)", id, prog[id], got)
			}
		}
	}
	return nil
}
