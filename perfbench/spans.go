package main

import (
	"sync"
	"time"
)

// span is one public library call made by a traced pass, with its
// duration and the counts observed around it. The traced per-layer
// metrics of mcheck, traffic and telemetry are computed from spans alone.
type span struct {
	pass   int    // the traced pass the call belongs to
	name   string // the library call, e.g. "mcheck.Search"
	key    string // the operation: a search name or a rate point
	dur    time.Duration
	counts map[string]float64
}

// spanLog collects the spans of concurrent calls. A nil *spanLog records
// nothing, so untraced passes share the traced code path.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
}

// passes returns the spans of one call grouped by pass, in pass order.
func (l *spanLog) passes(name string) [][]span {
	var out [][]span
	idx := map[int]int{}
	for _, s := range l.spans {
		if s.name != name {
			continue
		}
		i, ok := idx[s.pass]
		if !ok {
			i = len(out)
			idx[s.pass] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// durations returns the seconds of every span of one call.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// sum adds up a count over spans; the count "ns" is the duration.
func sum(spans []span, count string) float64 {
	var t float64
	for _, s := range spans {
		if count == "ns" {
			t += float64(s.dur.Nanoseconds())
		} else {
			t += s.counts[count]
		}
	}
	return t
}
