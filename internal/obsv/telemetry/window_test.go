package telemetry

import (
	"testing"
)

// mkFrame builds a synthetic closed frame with deterministic counters.
func mkFrame(channels, idx int) *Frame {
	f := &Frame{
		Index:      idx,
		Start:      idx * 100,
		End:        (idx + 1) * 100,
		Samples:    10,
		Stride:     8,
		FlitsDelta: int64(idx * 3),
		Live:       idx % 5,
		Busy:       make([]uint32, channels),
		Occ:        make([]uint32, channels),
		Blocked:    make([]uint32, channels),
	}
	// A few hot channels whose counters drift slowly frame to frame —
	// the temporal-stability shape the delta encoding exploits.
	for _, ch := range []int{1, channels / 2, channels - 1} {
		f.Busy[ch] = uint32(50 + idx%3)
		f.Occ[ch] = uint32(100 + idx%2)
	}
	f.Blocked[channels/2] = uint32(idx % 4)
	return f
}

func TestWindowRoundTrip(t *testing.T) {
	const channels, n = 64, 50
	w := NewWindow(channels, 1<<20) // ample budget: nothing evicts
	want := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f := mkFrame(channels, i)
		w.Append(f)
		want = append(want, f)
	}
	var got []*Frame
	w.Frames(func(f *Frame) {
		cp := *f
		cp.Busy = append([]uint32(nil), f.Busy...)
		cp.Occ = append([]uint32(nil), f.Occ...)
		cp.Blocked = append([]uint32(nil), f.Blocked...)
		got = append(got, &cp)
	})
	if len(got) != n {
		t.Fatalf("decoded %d frames, want %d", len(got), n)
	}
	for i, f := range got {
		ref := want[i]
		if f.Index != ref.Index || f.Start != ref.Start || f.End != ref.End ||
			f.Samples != ref.Samples || f.Stride != ref.Stride ||
			f.FlitsDelta != ref.FlitsDelta || f.Live != ref.Live {
			t.Fatalf("frame %d scalars: got %+v want %+v", i, f, ref)
		}
		for c := 0; c < channels; c++ {
			if f.Busy[c] != ref.Busy[c] || f.Occ[c] != ref.Occ[c] || f.Blocked[c] != ref.Blocked[c] {
				t.Fatalf("frame %d channel %d: got (%d,%d,%d) want (%d,%d,%d)",
					i, c, f.Busy[c], f.Occ[c], f.Blocked[c],
					ref.Busy[c], ref.Occ[c], ref.Blocked[c])
			}
		}
	}
	st := w.Stats()
	if st.Frames != n || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.SpanStart != 0 || st.SpanEnd != n*100 {
		t.Fatalf("span [%d,%d], want [0,%d]", st.SpanStart, st.SpanEnd, n*100)
	}
	if st.CompressionX100 < 200 {
		t.Fatalf("compression %d (×100) — delta encoding should beat 2× on a stable stream", st.CompressionX100)
	}
}

func TestWindowEvictionKeepsDecodableSuffix(t *testing.T) {
	const channels, n = 128, 400
	w := NewWindow(channels, 2<<10) // tight: forces block eviction
	for i := 0; i < n; i++ {
		w.Append(mkFrame(channels, i))
	}
	st := w.Stats()
	if st.Dropped == 0 {
		t.Fatal("tight budget never evicted")
	}
	if st.Frames+st.Dropped != n {
		t.Fatalf("frames %d + dropped %d != %d", st.Frames, st.Dropped, n)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, st.Budget)
	}
	// Eviction is whole restart blocks from the front, so the retained
	// history is a contiguous suffix that decodes exactly.
	first := -1
	count := 0
	w.Frames(func(f *Frame) {
		if first < 0 {
			first = f.Index
			if f.Index != st.Dropped {
				t.Fatalf("first retained index %d, want %d", f.Index, st.Dropped)
			}
			if f.Index%windowRestart != 0 {
				t.Fatalf("suffix does not start on a restart frame: %d", f.Index)
			}
		}
		ref := mkFrame(channels, f.Index)
		if f.Start != ref.Start || f.End != ref.End || f.Busy[1] != ref.Busy[1] ||
			f.Blocked[channels/2] != ref.Blocked[channels/2] {
			t.Fatalf("frame %d decoded wrong after eviction", f.Index)
		}
		count++
	})
	if count != st.Frames {
		t.Fatalf("decoded %d frames, stats say %d", count, st.Frames)
	}
	if st.SpanStart != st.Dropped*100 {
		t.Fatalf("span start %d, want %d", st.SpanStart, st.Dropped*100)
	}
}

// TestWindowHistoryMultiple checks the acceptance figure: at equal
// memory, the delta window retains ≥8× the cycle history of raw frames.
func TestWindowHistoryMultiple(t *testing.T) {
	const channels = 256
	budget := 8 << 10
	w := NewWindow(channels, budget)
	for i := 0; i < 2000; i++ {
		w.Append(mkFrame(channels, i))
	}
	st := w.Stats()
	if st.Dropped == 0 {
		t.Fatal("window never filled — ratio not meaningful")
	}
	// A plain ring at the same budget holds budget/rawFrame frames.
	rawFrame := channels*12 + rawFrameScalars
	ringFrames := budget / rawFrame
	if st.Frames < 8*ringFrames {
		t.Fatalf("window retains %d frames vs ring %d — under the 8× bar", st.Frames, ringFrames)
	}
	if st.HistoryX100 < 800 {
		t.Fatalf("history_x100 = %d, want >= 800", st.HistoryX100)
	}
	if got := st.Raw * 100 / int64(budget); st.HistoryX100 != got {
		t.Fatalf("history_x100 %d inconsistent with raw/budget %d", st.HistoryX100, got)
	}
	// The EXPERIMENTS.md long-horizon table is regenerated from this line.
	t.Logf("budget %d B: %d frames retained (ring: %d), %d dropped, compression %.2fx, history %.2fx",
		budget, st.Frames, ringFrames, st.Dropped,
		float64(st.CompressionX100)/100, float64(st.HistoryX100)/100)
}

func TestWindowAppendSteadyStateZeroAlloc(t *testing.T) {
	const channels = 64
	w := NewWindow(channels, 4<<10)
	f := mkFrame(channels, 0)
	idx := 0
	push := func() {
		*f = *mkFrame(channels, idx) // reuse: mkFrame alloc outside measurement below
		idx++
		w.Append(f)
	}
	// Warm past the first evictions so buffers hit their high-water marks.
	for i := 0; i < 600; i++ {
		push()
	}
	frames := [3]*Frame{mkFrame(channels, 0), mkFrame(channels, 0), mkFrame(channels, 0)}
	avg := testing.AllocsPerRun(300, func() {
		fr := frames[idx%3]
		fr.Index = idx
		fr.Start = idx * 100
		fr.End = (idx + 1) * 100
		fr.Blocked[channels/2] = uint32(idx % 4)
		idx++
		w.Append(fr)
	})
	if avg != 0 {
		t.Fatalf("steady-state Append allocates %v allocs/op, want 0", avg)
	}
}

func TestWindowEmptyStats(t *testing.T) {
	w := NewWindow(16, 1<<12)
	st := w.Stats()
	if st.Frames != 0 || st.Bytes != 0 || st.CompressionX100 != 0 || st.HistoryX100 != 0 {
		t.Fatalf("empty window stats %+v", st)
	}
	w.Frames(func(*Frame) { t.Fatal("visit on empty window") })
}
