package cli

import (
	"math"
	"reflect"
	"strconv"
	"testing"
)

func TestParseRates(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"0.02:0.20:0.02", []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2}},
		{"0.05:0.25:0.10", []float64{0.05, 0.15, 0.25}},
		{"0.35:0.45:0.05", []float64{0.35, 0.4, 0.45}},
		{"0.5:0.5:0.1", []float64{0.5}},
		{"0.1:1:0.3", []float64{0.1, 0.4, 0.7, 1}},
		{"0.001:1:0.001", nil}, // exactly MaxRatePoints points; checked by length below
		{"0.05,0.2,0.5", []float64{0.05, 0.2, 0.5}},
		{"1", []float64{1}},
		{" 0.3 , 0.1", []float64{0.3, 0.1}},
	}
	for _, tc := range good {
		got, err := ParseRates(tc.in)
		if err != nil {
			t.Fatalf("ParseRates(%q): %v", tc.in, err)
		}
		if tc.want == nil {
			if len(got) != MaxRatePoints {
				t.Fatalf("ParseRates(%q) = %d points, want %d", tc.in, len(got), MaxRatePoints)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseRates(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{
		"", ",", "0.1,,0.2", "x", "0.1:0.2", "0.1:0.2:0.1:0.1", "a:b:c",
		"0.2:0.1:0.1",     // hi < lo
		"0.1:0.2:0",       // zero step
		"0.1:0.2:-0.1",    // negative step
		"NaN:NaN:1",       // non-finite bounds
		"0.1:Inf:0.1",     //
		"0.1:0.2:NaN",     //
		"-Inf:0.5:0.1",    //
		"0:0.2:0.1",       // a point at 0
		"-0.1:0.2:0.1",    // a point below 0
		"0.5:1.5:0.5",     // a point above 1
		"0.0001:1:0.0001", // over the point cap
		"0.5:0.5:1e-300",  // a step below the rounding resolution
		"0", "-0.1", "1.5", "NaN", "Inf", "0.1,NaN",
	} {
		if got, err := ParseRates(bad); err == nil {
			t.Fatalf("ParseRates(%q) = %v, want an error", bad, got)
		}
	}
}

// FuzzParseRates: whatever the spec, the parser returns promptly, and an
// accepted spec yields between 1 and MaxRatePoints rates, each in (0,1].
func FuzzParseRates(f *testing.F) {
	for _, s := range []string{"0.02:0.20:0.02", "0.05,0.2,0.5", "NaN:NaN:1", "0.1:Inf:0.1", "0.5:0.5:1e-300", "1e-9:1:1e-9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := ParseRates(s)
		if err != nil {
			return
		}
		if len(rates) == 0 || len(rates) > MaxRatePoints {
			t.Fatalf("ParseRates(%q) accepted %d rates", s, len(rates))
		}
		for _, r := range rates {
			if math.IsNaN(r) || r <= 0 || r > 1 {
				t.Fatalf("ParseRates(%q) accepted rate %v", s, r)
			}
		}
	})
}

// FuzzParseByteSize: an accepted size is non-negative and a plain decimal
// integer parses to itself.
func FuzzParseByteSize(f *testing.F) {
	for _, s := range []string{"1048576", "64M", "2Gi", "64MiB", "1T", "-1", "9223372036854775807K", "kb", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseByteSize(s)
		if v, perr := strconv.ParseInt(s, 10, 64); perr == nil && v >= 0 && (err != nil || n != v) {
			t.Fatalf("ParseByteSize(%q) = %d, %v; want %d", s, n, err, v)
		}
		if err == nil && n < 0 {
			t.Fatalf("ParseByteSize(%q) = %d", s, n)
		}
	})
}
