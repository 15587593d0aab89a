package main

import (
	"fmt"
	"time"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/fleet"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

// maxKernelCycles bounds any continuous kernel run.
const maxKernelCycles = 500_000_000

// fleetConfig is the paper's Clank 16,8,4,4 with every optimization.
func fleetConfig() clank.Config {
	return clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4,
		PrefixLowBits: 6, Opts: clank.OptAll}
}

// kernelSrc is one program a fleet runs, with its Go reference output.
type kernelSrc struct {
	name string
	src  string
	ref  []uint32
	// knownFault marks a kernel on which some devices are known to diverge
	// from the continuous run — wrong output values, useful cycles off the
	// continuous count — by a fault of the simulator (CHANGES.md, FOUND).
	// Its chunks run the fixed fleet seed knownFaultSeed and re-run every
	// device on the per-device path, so the same devices fail in every
	// round and the share of failed items depends neither on --seed nor
	// on the run's length. Those devices count as failed; any other
	// failure still makes the run incorrect.
	knownFault bool
}

// knownFaultSeed is the fleet seed of every chunk of a kernel with a known
// fault.
const knownFaultSeed = 99

// kernel is a compiled, profiled and continuously run program: the
// continuous run is the oracle every device's accounting must match.
type kernel struct {
	kernelSrc
	img     *ccc.Image
	cfg     clank.Config // carries the profiled Program Idempotent PCs
	trace   []armsim.Access
	cycles  uint64
	outputs []uint32
	prog    *armsim.SharedProgram // for the per-device path
}

// buildKernel compiles src, collects its continuous trace, profiles its
// Program Idempotent PCs, runs it continuously (checking the outputs
// against the Go reference) and builds its shared program.
func buildKernel(tr *tracer, ks kernelSrc, iopts intermittent.Options) (*kernel, error) {
	k := &kernel{kernelSrc: ks}
	var err error
	id := tr.begin("ccc.Compile")
	k.img, err = ccc.Compile(ks.src)
	tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ks.name, err)
	}
	id = tr.begin("armsim.CollectTrace")
	k.trace, k.cycles, err = armsim.CollectTrace(k.img.Bytes, maxKernelCycles)
	tr.end(id, int64(len(k.trace)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ks.name, err)
	}
	k.cfg = iopts.Config
	k.cfg.ExemptPCs = ccc.ProgramIdempotentPCs(k.trace)

	m := armsim.NewMachine()
	if err := m.Boot(k.img.Bytes); err != nil {
		return nil, fmt.Errorf("%s: %w", ks.name, err)
	}
	id = tr.begin("armsim.Machine.Run")
	cycles, err := m.Run(maxKernelCycles)
	tr.end(id, int64(m.CPU.Insns))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ks.name, err)
	}
	k.outputs = append([]uint32(nil), m.Mem.Outputs...)
	if cycles != k.cycles {
		return nil, fmt.Errorf("%s: continuous run took %d cycles, trace capture %d", ks.name, cycles, k.cycles)
	}
	if !equalPrefix(k.outputs, ks.ref) {
		return nil, fmt.Errorf("%s: continuous outputs %#x, Go reference %#x", ks.name, k.outputs, ks.ref)
	}
	if tr != nil {
		id = tr.begin("clank.replay")
		n := replayDetector(k.cfg, k.trace)
		tr.end(id, int64(n))
	}

	iopts.Config = k.cfg
	id = tr.begin("intermittent.BuildSharedProgram")
	k.prog, err = intermittent.BuildSharedProgram(k.img, iopts)
	tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ks.name, err)
	}
	return k, nil
}

// replayDetector feeds a trace's memory accesses to a bare detector,
// clearing it at every checkpoint it demands, and returns the number of
// accesses fed: the detector's cost without any machine around it.
func replayDetector(cfg clank.Config, trace []armsim.Access) int {
	k := clank.New(cfg)
	n := 0
	for _, a := range trace {
		if a.Addr >= armsim.MemSize {
			continue
		}
		word := a.Addr >> 2
		var out clank.Outcome
		if a.Write {
			out = k.Write(word, a.Value, a.Prev, a.PC)
		} else {
			out = k.Read(word, a.Value, a.PC)
		}
		if out.NeedCheckpoint {
			k.Reset()
		}
		n++
	}
	return n
}

// fleetWorkload runs fleet.Run with one worker over (kernel, scheme)
// combinations, one combination per chunk.
type fleetWorkload struct {
	seed    uint64
	srcs    []kernelSrc
	schemes []string
	devices int // devices per chunk
	meanOn  uint64
	fault   float64 // per-NV-write torn-write rate

	kernels  []*kernel
	facs     []scheme.Factory
	machines map[int]*intermittent.Machine // per-device path, by combination
}

func newFleetExec(seed uint64) *fleetWorkload {
	var srcs []kernelSrc
	for _, name := range []string{"crc", "sha", "aes", "dijkstra"} {
		b, _ := mibench.ByName(name)
		srcs = append(srcs, kernelSrc{name: name, src: b.Source, ref: kernelRefs[name](), knownFault: name == "aes"})
	}
	return &fleetWorkload{seed: seed, srcs: srcs, schemes: []string{"clank"},
		devices: 12, meanOn: power.DefaultMeanOn}
}

func newFleetMicro(seed uint64) *fleetWorkload {
	in := uint32(fleet.DeviceSeed(seed, -1))
	srcs := []kernelSrc{{name: "micro", src: microSource(in), ref: refMicro(in)}}
	return &fleetWorkload{seed: seed, srcs: srcs, schemes: []string{"clank", "alpaca:64", "dica:96"},
		devices: 200, meanOn: 2000, fault: 0.003}
}

// minOn is the supply's shortest on-time, fleet.Options' default.
const minOn = 500

func (w *fleetWorkload) iopts(cfg clank.Config, fac scheme.Factory) intermittent.Options {
	return intermittent.Options{Config: cfg, Scheme: fac, ProgressDefault: w.meanOn / 4}
}

func (w *fleetWorkload) setup(tr *tracer) error {
	w.kernels = w.kernels[:0]
	w.facs = w.facs[:0]
	w.machines = map[int]*intermittent.Machine{}
	for _, s := range w.schemes {
		fac, err := scheme.Parse(s)
		if err != nil {
			return err
		}
		w.facs = append(w.facs, fac)
	}
	for _, ks := range w.srcs {
		k, err := buildKernel(tr, ks, w.iopts(fleetConfig(), nil))
		if err != nil {
			return err
		}
		w.kernels = append(w.kernels, k)
	}
	return nil
}

func (w *fleetWorkload) round() int { return len(w.srcs) * len(w.schemes) }

// chunkSeed is chunk r's fleet seed.
func chunkSeed(seed uint64, r int) uint64 { return fleet.DeviceSeed(seed^0x636c616e6b, r) }

// nvFaultTag mirrors fleet's decorrelation of the fault-stream seed space
// from the supply seed space; the per-device comparison
// against fleet.Run would expose any drift.
const nvFaultTag = 0x746F726E

func (w *fleetWorkload) chunk(c *chunkCtx) error {
	combo := c.r % (len(w.kernels) * len(w.facs))
	k, fac := w.kernels[combo%len(w.kernels)], w.facs[combo/len(w.kernels)]
	seed := chunkSeed(w.seed, c.r)
	if k.knownFault {
		seed = knownFaultSeed
	}
	o := fleet.Options{
		Devices: w.devices, Workers: 1, Seed: seed,
		Config: k.cfg, Scheme: fac, MeanOn: w.meanOn, MinOn: minOn,
		ProgressDefault: w.meanOn / 4,
		NVFaultRate:     w.fault, NVFaultSeed: seed ^ 1,
	}
	var rep *fleet.Report
	var err error
	run := func() {
		id := c.tr.begin("fleet.Run")
		rep, err = fleet.Run(k.img, o)
		c.tr.end(id, int64(w.devices))
	}
	if c.layered {
		run()
	} else {
		c.m.timed(w.devices, run)
	}
	if err != nil {
		return fmt.Errorf("fleet %s/%s: %w", k.name, fac.Name(), err)
	}
	bad := make([]bool, w.devices)
	failed := 0
	for i := range rep.Results {
		r := &rep.Results[i]
		c.tally.attempted++
		c.m.latency(time.Duration(r.HostNS))
		if msg, known := checkDevice(k, r); msg != "" {
			bad[i] = true
			failed++
			c.tally.failAs(known, "%s/%s chunk %d device %d: %s", k.name, fac.Name(), c.r, r.Device, msg)
		}
		cs := &c.tally.counts
		cs.Devices++
		cs.Insns += int64(r.Insns)
		cs.Checkpoints += int64(r.Checkpoints)
		cs.Boots += int64(r.Boots)
		cs.CommitWrites += int64(r.CommitWrites)
		cs.Recovered += int64(r.RecoveredCommits)
		cs.Corrupt += int64(r.DetectedCorrupt)
		cs.Degraded += int64(r.DegradedBoots)
		c.dig.add(uint64(combo), r.Insns, uint64(r.Checkpoints), uint64(r.Boots),
			uint64(r.CommitWrites), uint64(r.RecoveredCommits), uint64(r.DetectedCorrupt),
			uint64(r.DegradedBoots), r.WallCycles, r.CkptCycles, r.RestartCycles, r.ReexecCycles)
	}
	if failed == 0 && (rep.Agg.Completed != w.devices || rep.Agg.Errors != 0) {
		// Every device checked out, so the fault is in the aggregate.
		c.tally.fail("%s/%s chunk %d: aggregate says %d/%d devices completed, %d errors",
			k.name, fac.Name(), c.r, rep.Agg.Completed, w.devices, rep.Agg.Errors)
	}

	// Output values: fleet.Run reports only their count, so the values
	// are checked on the per-device path — every device on the layered
	// path or of a kernel with a known fault, one device per chunk
	// otherwise.
	devs := []int{c.r % w.devices}
	if c.layered || k.knownFault {
		devs = devs[:0]
		for d := 0; d < w.devices; d++ {
			devs = append(devs, d)
		}
	}
	m, err := w.machine(c.tr, combo, k, fac)
	if err != nil {
		return err
	}
	perDevice := func() {
		for _, d := range devs {
			st, err := w.runDevice(c, m, o, d, fac.Name())
			msg, known := compareDevice(k, &rep.Results[d], st, m.Insns(), err)
			if msg == "" || bad[d] {
				continue
			}
			bad[d] = true
			c.tally.failAs(known, "%s/%s chunk %d device %d per-device run: %s", k.name, fac.Name(), c.r, d, msg)
		}
	}
	if c.layered {
		c.m.timed(len(devs), perDevice)
	} else {
		perDevice()
	}
	return nil
}

// machine returns the per-device path's machine for a combination.
func (w *fleetWorkload) machine(tr *tracer, combo int, k *kernel, fac scheme.Factory) (*intermittent.Machine, error) {
	if m := w.machines[combo]; m != nil {
		return m, nil
	}
	id := tr.begin("intermittent.NewMachineShared")
	m, err := intermittent.NewMachineShared(k.img, w.iopts(k.cfg, fac), k.prog)
	tr.end(id, 1)
	if err != nil {
		return nil, err
	}
	w.machines[combo] = m
	return m, nil
}

// runDevice re-runs one fleet device through the public per-device calls,
// with the supply and fault seeds fleet.Run derives for it.
func (w *fleetWorkload) runDevice(c *chunkCtx, m *intermittent.Machine, o fleet.Options, dev int, schemeName string) (intermittent.Stats, error) {
	tr := c.tr
	if tr != nil {
		c.nextItem()
	}
	item := tr.begin("scheme." + schemeName + ".item")
	id := tr.begin("power.NewSupply")
	supply := power.NewSupply(power.Exponential{Mean: o.MeanOn, Min: o.MinOn}, int64(fleet.DeviceSeed(o.Seed, dev)))
	tr.end(id, 1)
	id = tr.begin("intermittent.Machine.ResetDevice")
	m.ResetDevice(supply)
	tr.end(id, 1)
	var fault func(int) (bool, uint32)
	if o.NVFaultRate > 0 {
		fs := power.NewFaultStream(fleet.DeviceSeed(o.NVFaultSeed^nvFaultTag, dev), o.NVFaultRate)
		fault = func(int) (bool, uint32) { return fs.Next() }
	}
	id = tr.begin("intermittent.Machine.SetNVFault")
	m.SetNVFault(fault)
	tr.end(id, 1)
	id = tr.begin("intermittent.Machine.Run")
	st, err := m.Run()
	tr.end(id, int64(m.Insns()))
	tr.end(item, 1)
	tr.setItem(-1)
	return st, err
}

// checkDevice checks one fleet device against the continuous oracle and
// the cycle ledger; it returns "" when the device is correct, and reports
// whether the failure is the kernel's known useful-cycles fault.
func checkDevice(k *kernel, r *fleet.DeviceResult) (msg string, known bool) {
	switch {
	case r.Err != "":
		return r.Err, false
	case !r.Completed:
		return "did not complete", false
	case r.Outputs != len(k.outputs):
		return fmt.Sprintf("%d outputs, continuous run %d", r.Outputs, len(k.outputs)), false
	case r.UsefulCycles+r.CkptCycles+r.RestartCycles+r.ReexecCycles != r.WallCycles:
		return fmt.Sprintf("ledger %d+%d+%d+%d != wall %d",
			r.UsefulCycles, r.CkptCycles, r.RestartCycles, r.ReexecCycles, r.WallCycles), false
	case r.UsefulCycles != k.cycles:
		return fmt.Sprintf("useful cycles %d, continuous run %d", r.UsefulCycles, k.cycles), k.knownFault
	}
	return "", false
}

// compareDevice checks a per-device re-run against fleet.Run's result for
// the same device — results are a pure function of (seed, device) — and
// against the Go reference; it returns "" when the device is correct, and
// reports whether the failure is the kernel's known divergence.
func compareDevice(k *kernel, r *fleet.DeviceResult, st intermittent.Stats, insns uint64, err error) (msg string, known bool) {
	if err != nil {
		return err.Error(), false
	}
	got := fleet.DeviceResult{
		Device: r.Device, Completed: st.Completed, Boots: st.Restarts,
		Checkpoints: st.Checkpoints, BarrenBoots: st.BarrenBoots,
		TornCommits: st.TornCommits, RecoveredCommits: st.RecoveredCommits,
		TornWrites: st.TornWrites, DetectedCorrupt: st.DetectedCorrupt,
		DegradedBoots: st.DegradedBoots, CommitWrites: st.CommitWrites,
		Outputs: len(st.Outputs), UsefulCycles: st.UsefulCycles,
		WallCycles: st.WallCycles, CkptCycles: st.CkptCycles,
		RestartCycles: st.RestartCycles, ReexecCycles: st.ReexecCycles,
		Insns: insns, ProgressPermille: r.ProgressPermille,
		OverheadPermille: r.OverheadPermille, HostNS: r.HostNS,
	}
	if got != *r {
		return fmt.Sprintf("per-device counts %+v differ from fleet.Run's %+v", got, *r), false
	}
	if !equalPrefix(st.Outputs, k.ref) || len(st.Outputs) != len(k.outputs) {
		return fmt.Sprintf("outputs %#x, Go reference %#x", st.Outputs, k.ref), k.knownFault
	}
	return "", false
}
