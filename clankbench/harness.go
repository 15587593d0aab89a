package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. Items are grouped in
// chunks of a few tens to a few hundred milliseconds; the calibration
// probe runs between chunks.
type workload interface {
	// setup builds everything the chunks share; a run calls it repeatedly
	// and keeps the last build.
	setup(tr *tracer) error
	// chunk runs chunk c.r, checks every item, and reports items and
	// failures into c.tally. Only the simulation calls run inside
	// c.m.timed; checks and reference re-runs stay outside it.
	chunk(c *chunkCtx) error
	// round is the number of chunks that cover every combination of the
	// workload's inputs once; timed phases end on a round boundary so
	// every run measures the same mix.
	round() int
}

type workloadSpec struct {
	name string
	make func(seed uint64) workload
}

var workloads = []workloadSpec{
	{"fleet-exec", func(seed uint64) workload { return newFleetExec(seed) }},
	{"fleet-micro", func(seed uint64) workload { return newFleetMicro(seed) }},
	{"crash-sweep", func(seed uint64) workload { return newCrashSweep(seed) }},
	{"design-sweep", func(seed uint64) workload { return newDesignSweep(seed) }},
}

// warmChunks is the number of warm-up chunks a run starts with: checked
// and folded into the simulated-statistics digest, but not timed.
const warmChunks = 3

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// A run builds its set-up at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps times); setup_s is the
// median build.
const (
	minSetupReps = 5
	maxSetupReps = 200
	minSetupTime = 500 * time.Millisecond
)

// counts are the simulated statistics the items produce. A change that
// only speeds up the simulator leaves every one of them identical.
type counts struct {
	Devices      int64 // intermittent runs (fleet devices)
	Insns        int64
	Checkpoints  int64
	Boots        int64
	CommitWrites int64
	Recovered    int64
	Corrupt      int64
	Degraded     int64

	Jobs              int64 // policysim design points
	PolicyCheckpoints int64
}

// tally counts the items a pass attempted and the ones that failed. Of the
// failed items, wrong counts those not explained by a known fault of the
// simulator; the run is correct when there are none.
type tally struct {
	attempted, failed, wrong int64
	counts                   counts
}

// fail records a failed item; the first few reasons go to stderr.
func (t *tally) fail(format string, args ...any) { t.failAs(false, format, args...) }

// failAs records a failed item, one that fails by a known fault of the
// simulator when known is set.
func (t *tally) failAs(known bool, format string, args ...any) {
	t.failed++
	what := "FAILED (known fault)"
	if !known {
		t.wrong++
		what = "FAILED"
	}
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "clankbench: %s: %s\n", what, fmt.Sprintf(format, args...))
	}
}

// digest hashes every digest item's simulated counts.
type digest struct {
	h     hash.Hash64
	items int64
	buf   []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// add folds one item's values.
func (d *digest) add(vals ...uint64) {
	if d == nil {
		return
	}
	d.buf = d.buf[:0]
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			d.buf = append(d.buf, byte(v>>(8*i)))
		}
	}
	d.h.Write(d.buf)
	d.items++
}

// meter accumulates the wall, CPU and calibrated CPU time, the heap
// traffic and the per-item latencies of the timed parts of recorded chunks.
type meter struct {
	cal               *calibrator
	record            bool
	raw, cpu, calTime time.Duration
	mallocs, bytes    uint64
	items             int64
	itemMS            []float64
}

// timed runs f, a part of a chunk that completes items items, and
// records it when the meter is recording.
func (m *meter) timed(items int, f func()) {
	if !m.record {
		f()
		return
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	raw, cpu, cal := m.cal.measure(f)
	runtime.ReadMemStats(&b)
	m.raw += raw
	m.cpu += cpu
	m.calTime += cal
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.items += int64(items)
}

// rate is items per calibrated CPU second, or per wall second when raw is
// set.
func (m *meter) rate(raw bool) float64 {
	if raw {
		return float64(m.items) / m.raw.Seconds()
	}
	return float64(m.items) / m.calTime.Seconds()
}

// latency records one item's raw host time when recording.
func (m *meter) latency(d time.Duration) {
	if m.record {
		m.itemMS = append(m.itemMS, float64(d)/1e6)
	}
}

// start switches recording on with a fresh calibration probe.
func (m *meter) start() {
	m.record = true
	m.cal.last = m.cal.probe()
}

// chunkCtx is what a workload's chunk sees.
type chunkCtx struct {
	r int
	// layered selects the layer-by-layer path: public per-layer calls
	// (fleet devices one by one, the two policysim engines apart, single
	// crash runs) that the spans wrap. It is timed with and without spans
	// to give the tracing overhead.
	layered bool
	tr      *tracer // nil: no spans
	m       *meter
	dig     *digest // nil unless the chunk is a warm-up chunk
	tally   *tally
	item    *int64 // next item id, for span tags
}

// nextItem takes a fresh item id and tags subsequent spans with it.
func (c *chunkCtx) nextItem() {
	c.tr.setItem(*c.item)
	*c.item++
}

// timedSetup builds the set-up repeatedly, returning the first build error
// and the raw and calibrated durations in seconds.
func timedSetup(w workload, cal *calibrator, tr *tracer) (raws, cals []float64, err error) {
	var total time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < minSetupTime); i++ {
		// Each build starts from a collected heap whose free pages are
		// already returned to the OS, so neither one build's garbage nor
		// the background scavenger's CPU time is charged to the next.
		debug.FreeOSMemory()
		raw, _, c := cal.measure(func() { err = w.setup(tr) })
		total += raw
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		raws = append(raws, raw.Seconds())
		cals = append(cals, c.Seconds())
	}
	return raws, cals, nil
}

// runChunks runs whole rounds of chunks, starting at c.r, until seconds
// of raw wall clock have passed. run runs chunk c.r; nil means w.chunk.
func runChunks(w workload, c *chunkCtx, seconds float64, run func() error) error {
	if run == nil {
		run = func() error { return w.chunk(c) }
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for start := c.r; ; {
		if err := run(); err != nil {
			return err
		}
		c.r++
		if (c.r-start)%w.round() == 0 && !time.Now().Before(deadline) {
			return nil
		}
	}
}

// warmUp runs the warm-up chunks into dig: at least warmChunks, in whole
// rounds, so that a run attempts whole rounds from start to end.
func warmUp(w workload, c *chunkCtx, dig *digest) error {
	c.dig = dig
	n := (warmChunks + w.round() - 1) / w.round() * w.round()
	for ; c.r < n; c.r++ {
		if err := w.chunk(c); err != nil {
			return err
		}
	}
	c.dig = nil
	return nil
}

func reportDigest(spec workloadSpec, seed uint64, dig *digest) {
	fmt.Fprintf(os.Stderr, "digest %s seed %d: %016x over %d items (regenerate: bash clankbench/run.sh --workload %s --seed %d --seconds 1 --trace 0)\n",
		spec.name, seed, dig.h.Sum64(), dig.items, spec.name, seed)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(spec workloadSpec, seed uint64, seconds float64) (result, error) {
	w := spec.make(seed)
	cal := newCalibrator()
	_, setupCal, err := timedSetup(w, cal, nil)
	if err != nil {
		return result{}, err
	}
	t := &tally{}
	m := &meter{cal: cal}
	var item int64
	c := &chunkCtx{m: m, tally: t, item: &item}
	dig := newDigest()
	if err := warmUp(w, c, dig); err != nil {
		return result{}, err
	}
	reportDigest(spec, seed, dig)
	m.start()
	if err := runChunks(w, c, seconds, nil); err != nil {
		return result{}, err
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)

	items := float64(m.items)
	metrics := map[string]metric{
		"setup_s":           {median(setupCal), "s"},
		"items_per_s":       {m.rate(false), "1/s"},
		"mem_live_mb":       {float64(ms.HeapAlloc) / (1 << 20), "MB"},
		"allocs_per_item":   {float64(m.mallocs) / items, "count"},
		"alloc_kb_per_item": {float64(m.bytes) / 1024 / items, "KB"},
	}
	fmt.Fprintf(os.Stderr, "%s: %d timed items in %.2fs wall, %.2fs CPU (%.1f items/s raw, calibration factor %.3f)\n",
		spec.name, m.items, m.raw.Seconds(), m.cpu.Seconds(), m.rate(true), cal.factor())
	printMetrics(metrics)
	return result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// runTraced measures the per-layer metrics. The pass order is: the timed
// set-up builds, then as many traced builds; a layer probe that builds
// every other workload and runs its warm-up chunks on the traced layered
// path; the warm-up; then the end-to-end path for seconds/3, and the
// layered path for the rest, each chunk twice in a row, without spans and
// with them (in alternating order), so that the two see the same items
// under the same host conditions. A layer metric comes from the workload's
// own spans; only a layer the workload never calls is read from the
// probe's spans. Calibration probes bracket every set-up build and every
// traced chunk, and each span is scaled like a chunk by the probes around
// it.
func runTraced(spec workloadSpec, seed uint64, seconds float64, tracePath string) (result, error) {
	tr := newTracer()
	tr.pass = spec.name
	w := spec.make(seed)
	cal := newCalibrator()
	setupRaw, _, err := timedSetup(w, cal, nil)
	if err != nil {
		return result{}, err
	}
	if _, _, err := timedSetup(w, cal, tr); err != nil {
		return result{}, err
	}

	var item int64
	probes := map[string]*tally{}
	for _, other := range workloads {
		if other.name == spec.name {
			continue
		}
		tr.pass = other.name
		ow := other.make(seed)
		if err := ow.setup(tr); err != nil {
			return result{}, fmt.Errorf("layer probe %s: %w", other.name, err)
		}
		pt := &tally{}
		pm := &meter{cal: cal}
		pm.start() // for the probes around each chunk; its figures are unused
		pc := &chunkCtx{layered: true, tr: tr, m: pm, tally: pt, item: &item}
		if err := warmUp(ow, pc, nil); err != nil {
			return result{}, fmt.Errorf("layer probe %s: %w", other.name, err)
		}
		probes[other.name] = pt
	}
	tr.pass = spec.name
	tr.setItem(-1)

	t := &tally{}
	m := &meter{cal: cal}
	c := &chunkCtx{m: m, tally: t, item: &item}
	if err := warmUp(w, c, nil); err != nil {
		return result{}, err
	}
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	runtime.ReadMemStats(&ms0)
	m.start()
	if err := runChunks(w, c, seconds/3, nil); err != nil {
		return result{}, err
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)

	mBare, mSpans := &meter{cal: cal}, &meter{cal: cal}
	mBare.start()
	mSpans.start()
	c.layered = true
	twice := func() error {
		first := func() error { c.tr, c.m = nil, mBare; return w.chunk(c) }
		second := func() error { c.tr, c.m = tr, mSpans; return w.chunk(c) }
		if c.r%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return err
		}
		return second()
	}
	if err := runChunks(w, c, seconds*2/3, twice); err != nil {
		return result{}, err
	}
	tr.setItem(-1)
	cal.probe() // brackets the spans after the last timed part
	runtime.KeepAlive(w)

	if err := writeChromeTrace(tracePath, tr.spans); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %d spans to %s\n", spec.name, len(tr.spans), tracePath)

	scales := spanScales(tr.spans, cal.marks, tr.epoch, nominalProbe)
	metrics := layerMetrics(spec.name, selfTimes(tr.spans, scales), t, probes)
	items := float64(m.items)
	pct, tail := latencyTail(m.itemMS)
	metrics["host.calib_factor"] = metric{cal.factor(), "x"}
	metrics["host.raw_items_per_s"] = metric{m.rate(true), "1/s"}
	metrics["host.cpu_per_wall"] = metric{m.cpu.Seconds() / m.raw.Seconds(), "x"}
	metrics["host.raw_setup_s"] = metric{median(setupRaw), "s"}
	metrics["host.item_ms_p50"] = metric{median(m.itemMS), "ms"}
	metrics["host.item_ms_tail"] = metric{tail, "ms"}
	metrics["host.item_tail_pct"] = metric{pct, "pct"}
	metrics["host.item_samples"] = metric{float64(len(m.itemMS)), "count"}
	metrics["host.rss_peak_mb"] = metric{float64(ru1.Maxrss) / 1024, "MB"}
	metrics["host.trace_overhead_x"] = metric{mBare.rate(false) / mSpans.rate(false), "x"}
	metrics["host.minflt_per_item"] = metric{float64(ru1.Minflt-ru0.Minflt) / items, "count"}
	metrics["host.gc_per_kitem"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / items, "count"}
	printMetrics(metrics)
	return tracedResult(t, probes, metrics), nil
}

// tracedResult is a traced run's result. Attempted and failed are the
// workload's own items, so their ratio matches its untraced runs; an item
// of the layer probe that fails other than by a known fault makes the run
// incorrect too.
func tracedResult(t *tally, probes map[string]*tally, metrics map[string]metric) result {
	res := result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	for _, w := range workloads {
		if p := probes[w.name]; p != nil {
			fmt.Fprintf(os.Stderr, "layer probe %s: %d items, %d failed (%d by a known fault)\n",
				w.name, p.attempted, p.failed, p.failed-p.wrong)
			if p.wrong > 0 {
				res.Correct = false
			}
		}
	}
	return res
}

// layerMetrics derives the span-based and count-based per-layer metrics.
func layerMetrics(own string, agg map[string]map[string]*layerStat, t *tally, probes map[string]*tally) map[string]metric {
	// stat returns the workload's own aggregate for a span name or, when
	// the workload makes no such call, the first probe pass's (in
	// workload order) that does.
	stat := func(name string) *layerStat {
		if s := agg[own][name]; s != nil {
			return s
		}
		for _, w := range workloads {
			if s := agg[w.name][name]; s != nil {
				return s
			}
		}
		return &layerStat{}
	}
	meanMS := func(name string) float64 {
		s := stat(name)
		return float64(s.Total) / 1e6 / float64(s.Count)
	}
	perN := func(name string, self bool) float64 {
		s := stat(name)
		if self {
			return float64(s.Self) / float64(s.N)
		}
		return float64(s.Total) / float64(s.N)
	}
	rate := func(name string) float64 {
		s := stat(name)
		return float64(s.Count) / (float64(s.Total) / 1e9)
	}
	cont := perN("armsim.Machine.Run", false)
	run := perN("intermittent.Machine.Run", true)
	ms := map[string]metric{
		"armsim.cont_ns_per_insn":                {cont, "ns"},
		"intermittent.run_ns_per_insn":           {run, "ns"},
		"intermittent.exec_overhead_x":           {run / cont, "x"},
		"clank.ns_per_access":                    {perN("clank.replay", false), "ns"},
		"intermittent.reset_us":                  {meanMS("intermittent.Machine.ResetDevice") * 1e3, "us"},
		"power.new_supply_us":                    {meanMS("power.NewSupply") * 1e3, "us"},
		"verify.clean_run_us":                    {meanMS("verify.CheckTear.clean") * 1e3, "us"},
		"verify.torn_run_us":                     {meanMS("verify.CheckTear.torn") * 1e3, "us"},
		"verify.check_ms_p50":                    {median(stat("verify.CrashHarness.Check").durs) / 1e6, "ms"},
		"policysim.lockstep_ns_per_access_cfg":   {perN("policysim.Sweep.lockstep", false), "ns"},
		"policysim.powered_ns_per_access_cfg":    {perN("policysim.Sweep.powered", false), "ns"},
		"ccc.compile_ms":                         {meanMS("ccc.Compile"), "ms"},
		"armsim.collect_trace_ms":                {meanMS("armsim.CollectTrace"), "ms"},
		"intermittent.build_shared_ms":           {meanMS("intermittent.BuildSharedProgram"), "ms"},
		"policysim.batch_trace_ms":               {meanMS("policysim.NewBatchTrace"), "ms"},
		"verify.enumerate_ms":                    {meanMS("verify.EnumerateCanonical"), "ms"},
		"scheme.clank.items_per_s":               {rate("scheme.clank.item"), "1/s"},
		"scheme.alpaca.items_per_s":              {rate("scheme.alpaca.item"), "1/s"},
		"scheme.dica.items_per_s":                {rate("scheme.dica.item"), "1/s"},
		"fleet.devices_per_s":                    {float64(stat("fleet.Run").N) / (float64(stat("fleet.Run").Total) / 1e9), "1/s"},
		"intermittent.insns_per_item":            {},
		"intermittent.checkpoints_per_item":      {},
		"intermittent.boots_per_item":            {},
		"intermittent.commit_writes_per_item":    {},
		"intermittent.recovered_per_item":        {},
		"intermittent.corrupt_detected_per_item": {},
		"policysim.checkpoints_per_item":         {},
	}
	// Simulated counts: the workload's own items or, when it runs no
	// item of that layer, the first probe pass's that does.
	dev, pol := t.counts, t.counts
	for _, w := range workloads {
		if p := probes[w.name]; p != nil && dev.Devices == 0 {
			dev = p.counts
		}
		if p := probes[w.name]; p != nil && pol.Jobs == 0 {
			pol = p.counts
		}
	}
	per := func(v, n int64) metric { return metric{float64(v) / float64(n), "count"} }
	ms["intermittent.insns_per_item"] = per(dev.Insns, dev.Devices)
	ms["intermittent.checkpoints_per_item"] = per(dev.Checkpoints, dev.Devices)
	ms["intermittent.boots_per_item"] = per(dev.Boots, dev.Devices)
	ms["intermittent.commit_writes_per_item"] = per(dev.CommitWrites, dev.Devices)
	ms["intermittent.recovered_per_item"] = per(dev.Recovered, dev.Devices)
	ms["intermittent.corrupt_detected_per_item"] = per(dev.Corrupt, dev.Devices)
	ms["policysim.checkpoints_per_item"] = per(pol.PolicyCheckpoints, pol.Jobs)
	return ms
}
