package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// headerLine is a valid format-2 bundle header; bundlePrefix adds a
// two-channel line.
const (
	headerLine   = `{"flight_recorder":true,"format":2,"reason":"deadlock"}` + "\n"
	bundlePrefix = headerLine + `{"channels":[[0,1],[1,0]]}` + "\n"
)

// TestParseBundleRejectsHostileLines: IDs a recorder never writes are
// errors, not index panics.
func TestParseBundleRejectsHostileLines(t *testing.T) {
	for _, line := range []string{
		`{"waitgraph":true,"seen":[-1]}`,
		`{"waitgraph":true,"edges":[[-1,0,0]]}`,
		`{"waitgraph":true,"held":[[-5,0]]}`,
		`{"waitgraph":true,"edges":[[0,2,1]]}`,
		`{"waitgraph":true,"held":[[0,-1]]}`,
		`{"waitgraph":true,"seen":[4194304]}`,
		`{"frame":0,"channels":[]}` + "\n" + `{"channels":[[0,1]]}`,
	} {
		if _, err := ParseBundle(strings.NewReader(bundlePrefix + line + "\n")); err == nil {
			t.Errorf("ParseBundle accepted %s", line)
		}
	}
	huge := headerLine + `{"channels":[` + strings.Repeat("[0,1],", maxBundleChannels) + "[0,1]]}\n"
	if _, err := ParseBundle(strings.NewReader(huge)); err == nil {
		t.Errorf("ParseBundle accepted a %d-channel line", maxBundleChannels+1)
	}
}

// TestParseBundleFrameBudget: frame lines past the header's
// frames_retained, and a frames_retained × channels product past the
// cap, are rejected before their counters are allocated.
func TestParseBundleFrameBudget(t *testing.T) {
	header := func(frames int) string {
		return fmt.Sprintf(`{"flight_recorder":true,"format":2,"reason":"deadlock","frames_retained":%d}`, frames) + "\n"
	}
	const twoChannels = `{"channels":[[0,1],[1,0]]}` + "\n"
	frames := func(n int) string { return strings.Repeat(`{"frame":0}`+"\n", n) }

	b, err := ParseBundle(strings.NewReader(header(2) + twoChannels + frames(2)))
	if err != nil || len(b.Frames) != 2 {
		t.Fatalf("a bundle with frames_retained frame lines: %v", err)
	}
	for name, in := range map[string]string{
		"one frame too many":    header(1) + twoChannels + frames(2),
		"no frames_retained":    bundlePrefix + frames(1),
		"product over the cap":  header(maxBundleFrameCells/2+1) + twoChannels + frames(1),
		"channels after frames": header(1) + frames(1) + twoChannels,
	} {
		if _, err := ParseBundle(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseBundle accepted the bundle", name)
		}
	}

	// A 4096-channel line and 1000 frame lines under a header that
	// retains none: counters for every line would cost 1000 × 4096 × 12
	// bytes, about 49 MB. Rejecting the first frame line keeps the parse
	// to the scanner buffer and the channel line.
	hostile := headerLine + `{"channels":[` + strings.Repeat("[0,1],", 4095) + "[0,1]]}\n" + frames(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ParseBundle(strings.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ParseBundle accepted frame lines the header does not retain")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("parsing the hostile bundle allocated %d bytes, want under 8 MiB", got)
	}
}

// FuzzParseBundle: ParseBundle never panics, and every bundle it accepts
// renders every artifact without panicking.
func FuzzParseBundle(f *testing.F) {
	r := deadlockedRecorder()
	r.SetSLO([]byte(`{"violations":1,"results":[{"spec":"p99<=5","source":-1,"observed":9,"bound":5,"count":3,"ok":false}]}`))
	dir := f.TempDir()
	if err := r.Dump(dir, ""); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(bundlePrefix + `{"waitgraph":true,"seen":[0,1],"edges":[[0,1,1],[1,0,0]],"held":[[0,0],[1,1]]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		b.RenderDOT()
		b.RenderHeatmap()
		b.RenderHeatmapAnim()
		b.RenderTimeline()
		b.RenderSummary()
	})
}
