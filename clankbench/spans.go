package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's epoch, the span that caused it (-1 for
// none), the item it belongs to (-1 for set-up and probes), the pass that
// recorded it (a workload name), and a work count (instructions, accesses,
// devices) for per-unit figures.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Item       int64
	Pass       string
	N          int64
}

// tracer keeps spans in memory for one goroutine; a nil tracer records
// nothing, so untraced runs share the traced code path at no cost.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	item  int64
	pass  string
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), item: -1} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.epoch)), End: -1,
		Parent: parent, Item: t.item, Pass: t.pass,
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span, and records
// its work count.
func (t *tracer) end(id int32, n int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	s.N = n
	t.stack = t.stack[:len(t.stack)-1]
}

// setItem tags the spans begun from now on with an item id (-1: none).
func (t *tracer) setItem(id int64) {
	if t != nil {
		t.item = id
	}
}

// layerStat aggregates every span of one name within one pass.
type layerStat struct {
	Count int
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
	N     int64 // summed work counts
	durs  []float64
}

// selfTimes aggregates spans by (pass, name), each span's times scaled by
// its entry in scales (nil: unscaled). A span's self time is its duration
// minus the part its direct children cover; children never overlap each
// other because one goroutine records them in nesting order.
func selfTimes(spans []span, scales []float64) map[string]map[string]*layerStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[string]*layerStat{}
	for i, s := range spans {
		byName := out[s.Pass]
		if byName == nil {
			byName = map[string]*layerStat{}
			out[s.Pass] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		f := 1.0
		if scales != nil {
			f = scales[i]
		}
		d := s.End - s.Start
		st.Count++
		st.Total += int64(float64(d) * f)
		st.Self += int64(float64(d-child[i]) * f)
		st.N += s.N
		st.durs = append(st.durs, float64(d)*f)
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open offline. Each pass gets its own track.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tids := map[string]int{}
	for _, s := range spans {
		if _, ok := tids[s.Pass]; !ok {
			tids[s.Pass] = len(tids) + 1
		}
	}
	events := make([]traceEvent, 0, len(spans)+len(tids))
	passes := make([]string, 0, len(tids))
	for p := range tids {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	for _, p := range passes {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[p],
			Args: map[string]any{"name": p},
		})
	}
	for i, s := range spans {
		args := map[string]any{"id": i, "parent": s.Parent}
		if s.Item >= 0 {
			args["item"] = s.Item
		}
		if s.N != 0 {
			args["n"] = s.N
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Pass, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tids[s.Pass], Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
