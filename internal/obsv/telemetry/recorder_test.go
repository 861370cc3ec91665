package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/topology"
)

// waitAdd emits the wait-for edge "msg waits for ch, held by owner".
func waitAdd(r *FlightRecorder, cycle, msg int, ch topology.ChannelID, owner int) {
	r.Event(obsv.Event{Kind: obsv.KindWaitEdgeAdd, Cycle: cycle, Msg: msg, Ch: ch, Owner: owner})
}

// TestRecorderEventRing: the ring keeps exactly the last cap events and
// reports the total seen.
func TestRecorderEventRing(t *testing.T) {
	g := topology.NewMesh([]int{2, 2}, 1)
	r := NewFlightRecorder(g.Network, 4, nil)
	for i := 0; i < 10; i++ {
		r.Event(obsv.Event{Kind: obsv.KindInject, Cycle: i, Msg: i})
	}
	if r.Retained() != 4 {
		t.Fatalf("Retained = %d, want 4", r.Retained())
	}
	jsonl := r.renderJSONL("test")
	if !bytes.Contains(jsonl, []byte(`"events_seen":10`)) || !bytes.Contains(jsonl, []byte(`"events_retained":4`)) {
		t.Fatalf("header miscounts events:\n%s", jsonl)
	}
	// Retained events are the newest four, oldest first, after the
	// header, channel-endpoint, and wait-graph lines.
	lines := strings.Split(strings.TrimRight(string(jsonl), "\n"), "\n")
	if len(lines) != 7 { // header + channels + waitgraph + 4 events
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), jsonl)
	}
	if !strings.Contains(lines[1], `"channels":[`) || !strings.Contains(lines[2], `"waitgraph":true`) {
		t.Fatalf("replay lines missing:\n%s", jsonl)
	}
	if !strings.Contains(lines[3], `"cycle":6`) || !strings.Contains(lines[6], `"cycle":9`) {
		t.Fatalf("event window wrong:\n%s", jsonl)
	}
}

// TestRecorderCycleDetection: a three-message wait cycle plus a
// non-cycle bystander; only the cycle members and their channels are
// reported.
func TestRecorderCycleDetection(t *testing.T) {
	g := topology.NewMesh([]int{2, 2}, 1)
	r := NewFlightRecorder(g.Network, 0, nil)
	waitAdd(r, 10, 0, 1, 1)
	waitAdd(r, 10, 1, 2, 2)
	waitAdd(r, 11, 2, 0, 0)
	waitAdd(r, 11, 3, 1, 1) // bystander waiting into the cycle
	// A resolved edge must drop out of the graph.
	waitAdd(r, 12, 4, 3, 0)
	r.Event(obsv.Event{Kind: obsv.KindWaitEdgeDel, Cycle: 13, Msg: 4})

	members := r.Graph().CycleMembers()
	for _, m := range []int{0, 1, 2} {
		if !members[m] {
			t.Fatalf("m%d missing from cycle: %v", m, members)
		}
	}
	if members[3] || members[4] {
		t.Fatalf("non-cycle messages reported: %v", members)
	}
	chs := r.CycleChannels()
	if len(chs) != 3 || chs[0] != 0 || chs[1] != 1 || chs[2] != 2 {
		t.Fatalf("CycleChannels = %v, want [0 1 2]", chs)
	}

	dot := string(r.Graph().RenderDOT("flight wait-for @13 [deadlock]"))
	if !strings.Contains(dot, `m0 -> m1 [label="c1" color=red style=bold]`) {
		t.Fatalf("cycle edge not red:\n%s", dot)
	}
	if !strings.Contains(dot, `m3 -> m1 [label="c1"];`) {
		t.Fatalf("bystander edge must stay plain:\n%s", dot)
	}
	if strings.Contains(dot, "m4 ->") {
		t.Fatalf("deleted edge still rendered:\n%s", dot)
	}
}

// TestRecorderVerdict: liveness events set the verdict; an outcome note
// only fills in when no classification preceded it.
func TestRecorderVerdict(t *testing.T) {
	g := topology.NewMesh([]int{2, 2}, 1)
	r := NewFlightRecorder(g.Network, 0, nil)
	if r.Verdict() != "" {
		t.Fatal("fresh recorder has a verdict")
	}
	r.Event(obsv.Event{Kind: obsv.KindLivelock, Cycle: 5, Msg: 1})
	r.Event(obsv.Event{Kind: obsv.KindOutcome, Cycle: 9, Note: "timeout"})
	if r.Verdict() != "livelock" {
		t.Fatalf("Verdict = %q, want livelock (outcome must not overwrite)", r.Verdict())
	}
}

// deadlockedRecorder is a 2x2-mesh recorder holding two telemetry
// frames (the second left partial, so Dump must flush it) and a
// two-message wait cycle.
func deadlockedRecorder() *FlightRecorder {
	g := topology.NewMesh([]int{2, 2}, 1)
	c := NewCollector(g.Network.NumChannels(), Config{Stride: 2, FrameEvery: 2})
	fillSample(c, 0, []int{0, 1}, []int{2}, 3, 2)
	fillSample(c, 2, []int{0}, []int{2}, 6, 2)
	fillSample(c, 4, []int{0}, nil, 9, 1)
	r := NewFlightRecorder(g.Network, 8, c)
	waitAdd(r, 3, 0, 1, 1)
	waitAdd(r, 3, 1, 2, 0)
	r.Event(obsv.Event{Kind: obsv.KindDeadlock, Cycle: 4, N: 2})
	return r
}

// TestRecorderDumpBundle: Dump writes the full three-artifact bundle,
// deterministic across two identical recorders, with the hottest channel
// outlined and cycle channels red in the heatmap.
func TestRecorderDumpBundle(t *testing.T) {
	dir := t.TempDir()
	r := deadlockedRecorder()
	if err := r.Dump(dir, ""); err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	head := string(jsonl[:bytes.IndexByte(jsonl, '\n')])
	// reason defaults to the recorder's verdict from the event stream.
	if !strings.Contains(head, `"flight_recorder":true`) || !strings.Contains(head, `"reason":"deadlock"`) {
		t.Fatalf("bad header: %s", head)
	}
	if !strings.Contains(head, `"frames_retained":2`) {
		t.Fatalf("partial frame not flushed into the bundle: %s", head)
	}
	if !bytes.Contains(jsonl, []byte(`"frame":0`)) || !bytes.Contains(jsonl, []byte(`"k":"`)) {
		t.Fatalf("bundle missing frames or events:\n%s", jsonl)
	}

	dot, err := os.ReadFile(filepath.Join(dir, "waitfor.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(dot, []byte("digraph")) || !bytes.Contains(dot, []byte("color=red")) {
		t.Fatalf("waitfor.dot missing the red cycle:\n%s", dot)
	}

	svg, err := os.ReadFile(filepath.Join(dir, "heatmap.svg"))
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0 is hottest (3 busy + 0 blocked... see fills: c0 busy 3,
	// c2 blocked 2, c1 busy 1) and gets the black outline; cycle channels
	// (c1, c2 — waited on in the final graph) are outlined red.
	if !bytes.Contains(svg, []byte(`stroke="black"`)) || !bytes.Contains(svg, []byte(`stroke="red"`)) {
		t.Fatalf("heatmap missing hottest/cycle outlines:\n%s", svg)
	}

	// Byte determinism of the whole bundle.
	dir2 := t.TempDir()
	if err := deadlockedRecorder().Dump(dir2, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"flight.jsonl", "waitfor.dot", "heatmap.svg"} {
		a, _ := os.ReadFile(filepath.Join(dir, name))
		b, _ := os.ReadFile(filepath.Join(dir2, name))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not deterministic", name)
		}
	}
}

// TestRecorderPartialFrameSpan: a dump that fires mid-frame must record
// the true cycle span — the flushed partial frame ends at the last
// sampled cycle, and the header's span_end covers telemetry samples
// taken after the last event, not just the frame-boundary or event
// cycle.
func TestRecorderPartialFrameSpan(t *testing.T) {
	g := topology.NewMesh([]int{2, 2}, 1)
	c := NewCollector(g.Network.NumChannels(), Config{Stride: 10, FrameEvery: 8})
	r := NewFlightRecorder(g.Network, 8, c)
	// One early event at cycle 3, then telemetry keeps sampling far past
	// it: 5 samples at cycles 0..40 — frame 0 never closes on its own
	// (FrameEvery 8).
	r.Event(obsv.Event{Kind: obsv.KindInject, Cycle: 3, Msg: 0})
	for i := 0; i <= 4; i++ {
		fillSample(c, i*10, []int{0}, nil, int64(i), 1)
	}
	if c.LastSampleCycle() != 40 {
		t.Fatalf("LastSampleCycle = %d, want 40", c.LastSampleCycle())
	}

	dir := t.TempDir()
	if err := r.Dump(dir, "requested"); err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	head := string(jsonl[:bytes.IndexByte(jsonl, '\n')])
	// The event cycle stays what it was; the span covers the samples.
	if !strings.Contains(head, `"cycle":3`) || !strings.Contains(head, `"span_end":40`) {
		t.Fatalf("header span does not reflect the mid-frame dump: %s", head)
	}
	// The flushed partial frame must end at the last sampled cycle, not
	// a frame boundary.
	if !bytes.Contains(jsonl, []byte(`"frame":0,"start":0,"end":40,"samples":5`)) {
		t.Fatalf("partial frame span wrong:\n%s", jsonl)
	}
}

// TestRecorderHeatmapGolden pins heatmap.svg byte-for-byte against a
// committed golden so the renderer can be refactored safely: the fixture
// exercises the hottest-channel black outline, the cycle red-border, and
// the green-to-red ramp.
func TestRecorderHeatmapGolden(t *testing.T) {
	g := topology.NewMesh([]int{2, 2}, 1)
	c := NewCollector(g.Network.NumChannels(), Config{Stride: 2, FrameEvery: 2})
	fillSample(c, 0, []int{0, 1}, []int{2}, 3, 2)
	fillSample(c, 2, []int{0}, []int{2}, 6, 2)
	fillSample(c, 4, []int{0, 3}, nil, 9, 1)
	r := NewFlightRecorder(g.Network, 8, c)
	waitAdd(r, 3, 0, 1, 1)
	waitAdd(r, 3, 1, 2, 0)
	r.Event(obsv.Event{Kind: obsv.KindDeadlock, Cycle: 4, N: 2})
	c.Flush()
	got := r.renderHeatmap("deadlock")

	golden := filepath.Join("testdata", "heatmap_golden.svg")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("heatmap.svg diverged from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
