package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
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
