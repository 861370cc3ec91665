package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxRatePoints caps the points of a rate grid. Every point is one
// simulation run, so a grid past this size is a typo (a step missing a
// digit), not a sweep.
const MaxRatePoints = 1000

// ParseRates parses an offered-rate spec: a "lo:hi:step" grid or an
// "a,b,c" list. Every rate must be finite and lie in (0,1], and a grid may
// hold at most MaxRatePoints points. Grid points are computed by integer
// multiples of the step and rounded to 1e-9, so the list is identical
// however it is later split across workers and accumulated float error
// never leaks into an artifact (0.06, not 0.060000000000000005).
func ParseRates(s string) ([]float64, error) {
	var out []float64
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-rates grid must be lo:hi:step, got %q", s)
		}
		var b [3]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("bad -rates grid %q", s)
			}
			b[i] = v
		}
		lo, hi, step := b[0], b[1], b[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("bad -rates grid %q", s)
		}
		// The cap also ends a step below the rounding resolution, whose
		// points round back onto lo and never pass hi.
		for i := 0; ; i++ {
			r := math.Round((lo+float64(i)*step)*1e9) / 1e9
			if r > hi+step/1e9 {
				break
			}
			if len(out) == MaxRatePoints {
				return nil, fmt.Errorf("-rates grid %q has more than %d points", s, MaxRatePoints)
			}
			out = append(out, r)
		}
	} else {
		for _, p := range strings.Split(s, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad rate %q in %q", p, s)
			}
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -rates %q", s)
	}
	for _, r := range out {
		if !(r > 0 && r <= 1) {
			return nil, fmt.Errorf("rate %v in -rates %q is outside (0,1]", r, s)
		}
	}
	return out, nil
}
