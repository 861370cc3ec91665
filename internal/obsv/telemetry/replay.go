// Offline bundle replay: parse a dumped flight.jsonl (format 2) back
// into frames, wait-for graph state, and window accounting, and
// re-render the artifacts without re-running the simulation. Everything
// here is a pure function of the bundle bytes, so replay output is
// byte-deterministic — render the same bundle twice, get the same bytes.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Bundle is a parsed flight.jsonl.
type Bundle struct {
	Format         int
	Reason         string
	Cycle          int
	SpanStart      int
	SpanEnd        int
	EventsSeen     int
	EventsRetained int
	FramesRetained int
	Window         *WindowStats

	Channels [][2]int // channel -> (src, dst) endpoint nodes
	Graph    *WaitGraph
	SLO      *SLOReport
	Frames   []*Frame

	EventLines int // retained event lines (kept as counts, not re-parsed)
}

type bundleHeader struct {
	FlightRecorder bool         `json:"flight_recorder"`
	Format         int          `json:"format"`
	Reason         string       `json:"reason"`
	Cycle          int          `json:"cycle"`
	SpanStart      int          `json:"span_start"`
	SpanEnd        int          `json:"span_end"`
	EventsSeen     int          `json:"events_seen"`
	EventsRetained int          `json:"events_retained"`
	FramesRetained int          `json:"frames_retained"`
	Window         *WindowStats `json:"window"`
}

type bundleFrame struct {
	Frame    int      `json:"frame"`
	Start    int      `json:"start"`
	End      int      `json:"end"`
	Samples  int      `json:"samples"`
	Stride   int      `json:"stride"`
	Flits    int64    `json:"flits"`
	Live     int      `json:"live"`
	Channels [][4]int `json:"channels"`
}

type bundleGraph struct {
	Seen  []int    `json:"seen"`
	Edges [][3]int `json:"edges"`
	Held  [][2]int `json:"held"`
}

// ParseBundle reads a flight.jsonl stream. Format 1 bundles (no channel
// or waitgraph lines) are rejected: they predate replayability.
func ParseBundle(r io.Reader) (*Bundle, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	b := &Bundle{}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		switch {
		case first:
			var h bundleHeader
			if err := json.Unmarshal(line, &h); err != nil || !h.FlightRecorder {
				return nil, fmt.Errorf("telemetry: not a flight bundle header: %q", line)
			}
			if h.Format < 2 {
				return nil, fmt.Errorf("telemetry: bundle format %d is not replayable (need >= 2)", h.Format)
			}
			b.Format = h.Format
			b.Reason = h.Reason
			b.Cycle = h.Cycle
			b.SpanStart = h.SpanStart
			b.SpanEnd = h.SpanEnd
			b.EventsSeen = h.EventsSeen
			b.EventsRetained = h.EventsRetained
			b.FramesRetained = h.FramesRetained
			b.Window = h.Window
			first = false
		case bytes.HasPrefix(line, []byte(`{"channels":`)):
			var v struct {
				Channels [][2]int `json:"channels"`
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("telemetry: channel line: %w", err)
			}
			// Frames and the wait graph are sized by the channel count, so
			// it is fixed once, before either.
			if b.Channels != nil || b.Graph != nil || len(b.Frames) > 0 {
				return nil, fmt.Errorf("telemetry: channel line must come once, before waitgraph and frame lines")
			}
			if len(v.Channels) > maxBundleChannels {
				return nil, fmt.Errorf("telemetry: channel line names %d channels (max %d)", len(v.Channels), maxBundleChannels)
			}
			b.Channels = v.Channels
		case bytes.HasPrefix(line, []byte(`{"waitgraph":`)):
			var v bundleGraph
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("telemetry: waitgraph line: %w", err)
			}
			if err := b.checkGraph(&v); err != nil {
				return nil, err
			}
			g := NewWaitGraph(len(b.Channels))
			for _, e := range v.Edges {
				g.AddEdge(e[0], topology.ChannelID(e[1]), e[2])
			}
			for _, id := range v.Seen {
				g.ensure(id)
				g.WaitSeen[id] = true
			}
			for _, h := range v.Held {
				g.Acquire(topology.ChannelID(h[0]), h[1])
			}
			b.Graph = g
		case bytes.HasPrefix(line, []byte(`{"slo":`)):
			var v struct {
				SLO *SLOReport `json:"slo"`
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("telemetry: slo line: %w", err)
			}
			b.SLO = v.SLO
		case bytes.HasPrefix(line, []byte(`{"frame":`)):
			// A recorder writes exactly frames_retained frame lines, each
			// costing three counters per channel.
			if len(b.Frames) >= b.FramesRetained {
				return nil, fmt.Errorf("telemetry: frame line beyond the header's frames_retained %d", b.FramesRetained)
			}
			if b.FramesRetained > maxBundleFrameCells/max(1, len(b.Channels)) {
				return nil, fmt.Errorf("telemetry: %d frames of %d channels exceed %d frame counter cells",
					b.FramesRetained, len(b.Channels), maxBundleFrameCells)
			}
			var v bundleFrame
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("telemetry: frame line: %w", err)
			}
			f := &Frame{
				Index: v.Frame, Start: v.Start, End: v.End,
				Samples: v.Samples, Stride: v.Stride,
				FlitsDelta: v.Flits, Live: v.Live,
				Busy:    make([]uint32, len(b.Channels)),
				Occ:     make([]uint32, len(b.Channels)),
				Blocked: make([]uint32, len(b.Channels)),
			}
			for _, q := range v.Channels {
				if q[0] >= 0 && q[0] < len(b.Channels) {
					f.Busy[q[0]] = uint32(q[1])
					f.Occ[q[0]] = uint32(q[2])
					f.Blocked[q[0]] = uint32(q[3])
				}
			}
			b.Frames = append(b.Frames, f)
		default:
			b.EventLines++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if first {
		return nil, fmt.Errorf("telemetry: empty bundle")
	}
	if b.Graph == nil {
		b.Graph = NewWaitGraph(len(b.Channels))
	}
	return b, nil
}

// maxBundleMsg bounds the message IDs a bundle may name. The wait graph
// is indexed by message ID, so one huge ID in a hostile bundle would
// otherwise force a multi-gigabyte allocation; 2^22 messages is far past
// any run the flight recorder is attached to.
const maxBundleMsg = 1 << 22

// maxBundleChannels bounds the channel line. Every frame line allocates
// three counters per channel, so a huge channel line followed by many
// tiny frame lines would otherwise cost tens of megabytes per frame
// line; 2^20 channels is far past any simulated network.
const maxBundleChannels = 1 << 20

// maxBundleFrameCells bounds frames_retained × channels, the per-channel
// counter sets the frame lines allocate (12 bytes each). The largest
// bundle the tests and CI write holds 21 frames of 8 channels (168
// cells); 2^22 cells, 48 MiB of counters, leaves four orders of
// magnitude of headroom.
const maxBundleFrameCells = 1 << 22

// checkGraph rejects a waitgraph line naming a message ID outside
// [0, maxBundleMsg) or a channel outside the bundle's channel line.
func (b *Bundle) checkGraph(v *bundleGraph) error {
	msgs, chans := append([]int(nil), v.Seen...), []int(nil)
	for _, e := range v.Edges {
		msgs, chans = append(msgs, e[0], e[2]), append(chans, e[1])
	}
	for _, h := range v.Held {
		msgs, chans = append(msgs, h[1]), append(chans, h[0])
	}
	for _, id := range msgs {
		if id < 0 || id >= maxBundleMsg {
			return fmt.Errorf("telemetry: waitgraph line: message ID %d out of range", id)
		}
	}
	for _, ch := range chans {
		if ch < 0 || ch >= len(b.Channels) {
			return fmt.Errorf("telemetry: waitgraph line: channel %d outside the %d-channel network", ch, len(b.Channels))
		}
	}
	return nil
}

// heat sums busy+blocked per channel over the retained frames.
func (b *Bundle) heat() []uint64 {
	heat := make([]uint64, len(b.Channels))
	for _, f := range b.Frames {
		for c := range heat {
			heat[c] += uint64(f.Busy[c]) + uint64(f.Blocked[c])
		}
	}
	return heat
}

func (b *Bundle) ends(ch int) (int, int) {
	if ch >= 0 && ch < len(b.Channels) {
		return b.Channels[ch][0], b.Channels[ch][1]
	}
	return -1, -1
}

// RenderDOT re-renders the bundle's wait-for graph, byte-identical to
// the recorder's original waitfor.dot.
func (b *Bundle) RenderDOT() []byte {
	return b.Graph.RenderDOT(fmt.Sprintf("flight wait-for @%d [%s]", b.Cycle, b.Reason))
}

// RenderHeatmap renders the congestion heatmap over the bundle's
// retained frames (the original heatmap covers the whole run; replay can
// only see retained evidence, which the title makes explicit).
func (b *Bundle) RenderHeatmap() []byte {
	return RenderHeatmap("replay:"+b.Reason, b.Cycle, b.heat(), b.ends, b.Graph.CycleChannels())
}

// animTopRows bounds the animated heatmap to the hottest channels.
const animTopRows = 32

// frameMS is the animation dwell per frame.
const frameMS = 250

// RenderHeatmapAnim renders a per-frame congestion animation: one row
// per hot channel, bar width and color animated across the retained
// frames (SMIL, loops forever). Pure function of the bundle.
func (b *Bundle) RenderHeatmapAnim() []byte {
	total := b.heat()
	type row struct {
		ch   int
		heat uint64
	}
	rows := make([]row, 0, len(total))
	for ch, h := range total {
		if h > 0 {
			rows = append(rows, row{ch, h})
		}
	}
	// Hottest first, channel ID as tiebreak — same ordering rule as the
	// static heatmap.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && (rows[j].heat > rows[j-1].heat ||
			(rows[j].heat == rows[j-1].heat && rows[j].ch < rows[j-1].ch)); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	if len(rows) > animTopRows {
		rows = rows[:animTopRows]
	}
	// Per-frame maximum heat normalizes bar widths frame by frame.
	var frameMax uint64 = 1
	for _, f := range b.Frames {
		for _, r := range rows {
			h := uint64(f.Busy[r.ch]) + uint64(f.Blocked[r.ch])
			if h > frameMax {
				frameMax = h
			}
		}
	}
	const rowH, labelW, barW = 18, 150, 500
	width := labelW + barW + 20
	height := (len(rows)+3)*rowH + 30
	dur := strconv.Itoa(max(1, len(b.Frames)) * frameMS)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="10" y="18">per-frame congestion replay — %s, %d frames, cycles %d..%d</text>`+"\n",
		xmlEscape(b.Reason), len(b.Frames), b.SpanStart, b.SpanEnd)
	// Frame cursor: a marker sweeping the footer as the animation runs.
	y := 30
	for _, r := range rows {
		src, dst := b.ends(r.ch)
		fmt.Fprintf(&sb, `<text x="10" y="%d">c%d %d→%d</text>`+"\n", y+13, r.ch, src, dst)
		var widths, fills strings.Builder
		for i, f := range b.Frames {
			if i > 0 {
				widths.WriteByte(';')
				fills.WriteByte(';')
			}
			h := uint64(f.Busy[r.ch]) + uint64(f.Blocked[r.ch])
			w := int(h * barW / frameMax)
			if w < 1 {
				w = 1
			}
			red := int(h * 255 / frameMax)
			fmt.Fprintf(&widths, "%d", w)
			fmt.Fprintf(&fills, "rgb(%d,%d,0)", red, 255-red)
		}
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="1" height="%d" fill="rgb(0,255,0)">`+"\n", labelW, y+2, rowH-4)
		fmt.Fprintf(&sb, `<animate attributeName="width" values="%s" dur="%sms" repeatCount="indefinite"/>`+"\n", widths.String(), dur)
		fmt.Fprintf(&sb, `<animate attributeName="fill" values="%s" dur="%sms" repeatCount="indefinite"/>`+"\n", fills.String(), dur)
		sb.WriteString("</rect>\n")
		y += rowH
	}
	// Sweep cursor along a footer timeline bar.
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="4" fill="#ddd"/>`+"\n", labelW, y+8, barW)
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="4" height="12" fill="black">`+"\n", labelW, y+4)
	fmt.Fprintf(&sb, `<animate attributeName="x" values="%d;%d" dur="%sms" repeatCount="indefinite"/>`+"\n", labelW, labelW+barW-4, dur)
	sb.WriteString("</rect>\n")
	fmt.Fprintf(&sb, `<text x="10" y="%d">frame sweep, %dms/frame</text>`+"\n", y+13, frameMS)
	sb.WriteString("</svg>\n")
	return []byte(sb.String())
}

// RenderTimeline renders the campaign timeline: per-frame total busy and
// blocked heat, live-message count, and the adaptive-stride trajectory,
// with the SLO verdict table underneath when the bundle carries one.
func (b *Bundle) RenderTimeline() []byte {
	const plotW, plotH, padL, padT = 640, 120, 60, 30
	n := len(b.Frames)
	var maxHeat, maxLive, maxStride uint64 = 1, 1, 1
	busy := make([]uint64, n)
	blocked := make([]uint64, n)
	for i, f := range b.Frames {
		for c := range f.Busy {
			busy[i] += uint64(f.Busy[c])
			blocked[i] += uint64(f.Blocked[c])
		}
		if busy[i]+blocked[i] > maxHeat {
			maxHeat = busy[i] + blocked[i]
		}
		if uint64(f.Live) > maxLive {
			maxLive = uint64(f.Live)
		}
		if uint64(f.Stride) > maxStride {
			maxStride = uint64(f.Stride)
		}
	}
	poly := func(vals func(i int) uint64, vmax uint64) string {
		var p strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				p.WriteByte(' ')
			}
			x := padL
			if n > 1 {
				x = padL + i*plotW/(n-1)
			}
			y := padT + plotH - int(vals(i)*uint64(plotH)/vmax)
			fmt.Fprintf(&p, "%d,%d", x, y)
		}
		return p.String()
	}
	sloRows := 0
	if b.SLO != nil {
		sloRows = len(b.SLO.Results) + 1
	}
	height := padT + plotH + 60 + sloRows*16
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`+"\n", padL+plotW+20, height)
	fmt.Fprintf(&sb, `<text x="10" y="18">campaign timeline — %s, cycles %d..%d, %d frames</text>`+"\n", xmlEscape(b.Reason), b.SpanStart, b.SpanEnd, n)
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`+"\n", padL, padT, plotW, plotH)
	if n > 0 {
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="green"/>`+"\n", poly(func(i int) uint64 { return busy[i] + blocked[i] }, maxHeat))
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="red"/>`+"\n", poly(func(i int) uint64 { return blocked[i] }, maxHeat))
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="blue"/>`+"\n", poly(func(i int) uint64 { return uint64(b.Frames[i].Live) }, maxLive))
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="#888" stroke-dasharray="3,2"/>`+"\n", poly(func(i int) uint64 { return uint64(b.Frames[i].Stride) }, maxStride))
	}
	y := padT + plotH + 20
	fmt.Fprintf(&sb, `<text x="%d" y="%d">green=busy+blocked (max %d)  red=blocked  blue=live (max %d)  dashed=stride (max %d)</text>`+"\n", padL, y, maxHeat, maxLive, maxStride)
	y += 20
	if b.SLO != nil {
		fmt.Fprintf(&sb, `<text x="%d" y="%d">SLO verdicts (%d violation(s)):</text>`+"\n", padL, y, b.SLO.Violations)
		y += 16
		for _, res := range b.SLO.Results {
			color := "green"
			verdict := "ok"
			if !res.OK {
				color = "red"
				verdict = "VIOLATED"
			}
			src := "all"
			if res.Source >= 0 {
				src = "src " + strconv.Itoa(res.Source)
			}
			fmt.Fprintf(&sb, `<text x="%d" y="%d" fill="%s">%s [%s] observed %d bound %d %s</text>`+"\n",
				padL, y, color, xmlEscape(res.Spec), src, res.Observed, res.Bound, verdict)
			y += 16
		}
	}
	sb.WriteString("</svg>\n")
	return []byte(sb.String())
}

// RenderSummary renders the replay summary as one deterministic JSON
// object: the header facts plus what replay derived from the evidence.
func (b *Bundle) RenderSummary() []byte {
	heat := b.heat()
	var totalHeat uint64
	hottest := -1
	var hottestHeat uint64
	for ch, h := range heat {
		totalHeat += h
		if h > hottestHeat || (h == hottestHeat && hottest < 0) {
			hottest, hottestHeat = ch, h
		}
	}
	cyc := b.Graph.CycleChannels()
	var o []byte
	o = append(o, `{"telemetry_replay":true,"format":`...)
	o = strconv.AppendInt(o, int64(b.Format), 10)
	o = append(o, `,"reason":`...)
	o = appendQuoted(o, b.Reason)
	o = append(o, `,"cycle":`...)
	o = strconv.AppendInt(o, int64(b.Cycle), 10)
	o = append(o, `,"span_start":`...)
	o = strconv.AppendInt(o, int64(b.SpanStart), 10)
	o = append(o, `,"span_end":`...)
	o = strconv.AppendInt(o, int64(b.SpanEnd), 10)
	o = append(o, `,"frames":`...)
	o = strconv.AppendInt(o, int64(len(b.Frames)), 10)
	o = append(o, `,"events_seen":`...)
	o = strconv.AppendInt(o, int64(b.EventsSeen), 10)
	o = append(o, `,"events_retained":`...)
	o = strconv.AppendInt(o, int64(b.EventLines), 10)
	o = append(o, `,"channels":`...)
	o = strconv.AppendInt(o, int64(len(b.Channels)), 10)
	o = append(o, `,"total_heat":`...)
	o = strconv.AppendInt(o, int64(totalHeat), 10)
	o = append(o, `,"hottest_channel":`...)
	o = strconv.AppendInt(o, int64(hottest), 10)
	o = append(o, `,"cycle_channels":[`...)
	for i, ch := range cyc {
		if i > 0 {
			o = append(o, ',')
		}
		o = strconv.AppendInt(o, int64(ch), 10)
	}
	o = append(o, ']')
	if b.Window != nil {
		o = append(o, `,"window":`...)
		o = b.Window.AppendJSON(o)
	}
	if b.SLO != nil {
		o = append(o, `,"slo_violations":`...)
		o = strconv.AppendInt(o, int64(b.SLO.Violations), 10)
	}
	o = append(o, '}', '\n')
	return o
}
