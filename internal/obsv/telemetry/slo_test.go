package telemetry

import (
	"bytes"
	"testing"
)

// TestBankEvaluate: the aggregate row is always present, only violating
// sources get rows, and idle or out-of-range sources never do.
func TestBankEvaluate(t *testing.T) {
	b := NewBank(3)
	for i := 0; i < 100; i++ {
		b.Observe(0, 10)
		b.Observe(2, 10+i)
	}
	b.Observe(7, 1000) // out of range: aggregate only
	objs, err := ParseSLO("p50<=40, p99<=100")
	if err != nil {
		t.Fatal(err)
	}
	got := b.Evaluate(objs).AppendJSON(nil)
	want := `{"violations":3,"results":[` +
		`{"spec":"p50<=40","source":-1,"observed":10,"bound":40,"count":201,"ok":true},` +
		`{"spec":"p50<=40","source":2,"observed":59,"bound":40,"count":100,"ok":false},` +
		`{"spec":"p99<=100","source":-1,"observed":108,"bound":100,"count":201,"ok":false},` +
		`{"spec":"p99<=100","source":2,"observed":108,"bound":100,"count":100,"ok":false}]}`
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("report\n%s\nwant\n%s", got, want)
	}
	if !NewBank(2).Evaluate(objs).OK() {
		t.Fatal("an empty bank must not violate")
	}
}

// FuzzParseSLO: ParseSLO never panics, and every objective it accepts
// re-parses from its Spec to the same percentile and bound.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{"p99<=500", "p50<=120,p99<=800", " p1<=0 , ", "p101<=5", "p9<=-1", "q5<=3", "p5<3", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		objs, err := ParseSLO(s)
		if err != nil {
			return
		}
		for _, o := range objs {
			if o.P < 1 || o.P > 100 || o.Bound < 0 {
				t.Fatalf("ParseSLO(%q) accepted %+v", s, o)
			}
			again, err := ParseSLO(o.Spec)
			if err != nil || len(again) != 1 || again[0] != o {
				t.Fatalf("Spec %q of %+v re-parses to %+v, %v", o.Spec, o, again, err)
			}
		}
	})
}
