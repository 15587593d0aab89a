package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// run [0,100) has children a [10,30) and b [40,90); b has child c
	// [50,60). A second pass holds one unrelated span.
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1, Pass: "p", N: 7},
		{Name: "a", Start: 10, End: 30, Parent: 0, Pass: "p"},
		{Name: "b", Start: 40, End: 90, Parent: 0, Pass: "p"},
		{Name: "c", Start: 50, End: 60, Parent: 2, Pass: "p"},
		{Name: "a", Start: 95, End: 99, Parent: 0, Pass: "p"},
		{Name: "run", Start: 200, End: 210, Parent: -1, Pass: "q", N: 1},
	}
	agg := selfTimes(spans, nil)
	check := func(pass, name string, count int, total, self, n int64) {
		t.Helper()
		s := agg[pass][name]
		if s == nil || s.Count != count || s.Total != total || s.Self != self || s.N != n {
			t.Errorf("%s/%s = %+v, want count %d total %d self %d n %d", pass, name, s, count, total, self, n)
		}
	}
	check("p", "run", 1, 100, 100-20-50-4, 7)
	check("p", "a", 2, 24, 24, 0)
	check("p", "b", 1, 50, 40, 0)
	check("p", "c", 1, 10, 10, 0)
	check("q", "run", 1, 10, 10, 1)

	// Scaled: each span's total and self time take its own factor.
	agg = selfTimes(spans, []float64{0.5, 2, 1, 1, 2, 3})
	check("p", "run", 1, 50, 13, 7)
	check("p", "a", 2, 48, 48, 0)
	check("q", "run", 1, 30, 30, 1)
	if d := agg["p"]["a"].durs; len(d) != 2 || d[0] != 40 || d[1] != 8 {
		t.Errorf("scaled durations %v, want [40 8]", d)
	}
}

func TestSpanScales(t *testing.T) {
	epoch := time.Unix(1000, 0)
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	// Probes over [0,10) measuring 100, [50,60) measuring 300 and
	// [200,210) measuring 50.
	marks := []probeMark{
		{at(0), at(10), 100, 1},
		{at(50), at(60), 300, 1},
		{at(200), at(210), 50, 1},
	}
	spans := []span{
		{Start: 20, End: 40},   // between the first two probes
		{Start: 10, End: 50},   // touching both
		{Start: 70, End: 150},  // between the last two
		{Start: 30, End: 120},  // encloses a probe: the ones outside it count
		{Start: 220, End: 230}, // after the last probe
		{Start: -5, End: -1},   // before the first
	}
	got := spanScales(spans, marks, epoch, 200)
	want := []float64{1, 1, 200.0 / 175, 200.0 / 75, 4, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("span %d scale %g, want %g", i, got[i], want[i])
		}
	}
	if s := spanScales(spans[:1], nil, epoch, 200); s[0] != 1 {
		t.Errorf("no probes: scale %g, want 1", s[0])
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	if id := none.begin("x"); id != -1 {
		t.Fatal("a nil tracer must record nothing")
	}
	none.end(-1, 0)

	tr := newTracer()
	tr.pass = "p"
	outer := tr.begin("outer")
	tr.setItem(3)
	inner := tr.begin("inner")
	tr.end(inner, 5)
	tr.end(outer, 1)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[1].Item != 3 || tr.spans[0].Item != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	s := tr.spans[1]
	if s.End < s.Start || s.N != 5 || tr.spans[0].End < s.End {
		t.Fatalf("inner span %+v not inside outer %+v", s, tr.spans[0])
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	spans := []span{
		{Name: "run", Start: 0, End: 2000, Parent: -1, Item: -1, Pass: "p"},
		{Name: "step", Start: 500, End: 1500, Parent: 0, Item: 4, Pass: "p", N: 9},
	}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete []traceEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete = append(complete, e)
		}
	}
	if len(complete) != 2 || complete[1].Ts != 0.5 || complete[1].Dur != 1 || complete[1].Args["item"] != float64(4) {
		t.Fatalf("events %+v", doc.TraceEvents)
	}
}
