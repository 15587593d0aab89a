package main

import (
	"sort"
	"syscall"
	"time"
)

// Host calibration. Raw host time on a shared two-thread host is not
// steady: the simulator's speed switches between regimes that last seconds
// to tens of seconds (a continuous crc run took about 1.35 ms in one and
// 2.45 ms in the other), and the hypervisor gives a varying share of the
// wall clock — a quarter and more at times — to other guests. A small
// switch-dispatched interpreter — the dispatch shape of the simulator's
// core — follows most of the speed swings: over 3-second windows of fleet
// execution, simulator time per instruction varied with a standard
// deviation of 14% raw and 8% relative to this reference loop. The time
// given to other guests it cannot follow, since a 4 ms probe and a 150 ms
// chunk lose different shares of their wall time; the process's CPU time
// leaves that time out. So the benchmark times the reference loop between
// chunks, on the same goroutine, in CPU time, and scales each chunk's CPU
// time by nominalProbe / probe. Calibrated figures read as "CPU time on a
// host where the reference loop takes nominalProbe".

// nominalProbe is a round figure near the reference loop's time on the
// host the benchmark was tuned on. It only scales the calibrated figures;
// both sides of any comparison use the same constant.
const nominalProbe = 1200 * time.Microsecond

// probeReps is how many times one probe runs each half of the reference
// loop; the probe reports the sum of the two halves' medians. The median
// keeps one preempted repetition from moving the factor.
const probeReps = 3

// Reference interpreter opcodes.
const (
	opLoad  = iota // r[a] = mem[r[b] & memMask]
	opStore        // mem[r[b] & memMask] = r[a]
	opMov          // r[a] = r[b]
	opAdd          // r[a] += r[b]
	opAddI         // r[a] += imm
	opXor          // r[a] ^= r[b]
	opMulI         // r[a] *= imm
	opShrI         // r[a] >>= imm
	opBlt          // if r[a] < r[b] { pc = imm }
	opHalt
)

type refInsn struct {
	op   uint8
	a, b uint8
	imm  uint32
}

const refMemWords = 256
const memMask = refMemWords - 1

// refProgram mixes a 256-word array in place: for i in 0..n: x = mem[i];
// h = (h ^ x) * 16777619; mem[i] = x + (h >> 7). Registers: r0 = i, r1 =
// n, r2 = h, r3 = x, r4 = scratch.
var refProgram = []refInsn{
	{op: opLoad, a: 3, b: 0},          // 0: x = mem[i]
	{op: opXor, a: 2, b: 3},           // 1: h ^= x
	{op: opMulI, a: 2, imm: 16777619}, // 2: h *= prime
	{op: opMov, a: 4, b: 2},           // 3: t = h
	{op: opShrI, a: 4, imm: 7},        // 4: t >>= 7
	{op: opAdd, a: 3, b: 4},           // 5: x += t
	{op: opStore, a: 3, b: 0},         // 6: mem[i] = x
	{op: opAddI, a: 0, imm: 1},        // 7: i++
	{op: opBlt, a: 0, b: 1, imm: 0},   // 8: loop while i < n
	{op: opHalt},
}

// interpret runs refProgram over mem for n iterations and returns h.
func interpret(mem *[refMemWords]uint32, n uint32) uint32 {
	var r [8]uint32
	r[1] = n
	r[2] = 2166136261
	for pc := 0; ; {
		in := &refProgram[pc]
		pc++
		switch in.op {
		case opLoad:
			r[in.a] = mem[r[in.b]&memMask]
		case opStore:
			mem[r[in.b]&memMask] = r[in.a]
		case opMov:
			r[in.a] = r[in.b]
		case opAdd:
			r[in.a] += r[in.b]
		case opAddI:
			r[in.a] += in.imm
		case opXor:
			r[in.a] ^= r[in.b]
		case opMulI:
			r[in.a] *= in.imm
		case opShrI:
			r[in.a] >>= in.imm
		case opBlt:
			if r[in.a] < r[in.b] {
				pc = int(in.imm)
			}
		case opHalt:
			return r[2]
		}
	}
}

// refIters and refClearBytes size one reference loop. The interpreter
// half tracks the host's regime switches within a few percent; the 2 MB
// clear tracks the memory-bandwidth side (device resets and machine
// reboots clear simulated memory) but slows less than the simulator in
// the slow regime, so it is kept to under a tenth of the probe.
const (
	refIters      = 48000
	refClearBytes = 2 << 20
)

// cpuNow returns the process's CPU time, user and system, over all its
// threads: the simulation goroutine, the probe and the garbage collector.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrator owns the reference loop's buffers and the probe history.
type calibrator struct {
	mem   [refMemWords]uint32
	buf   []byte
	sink  uint32
	last  probeMark // most recent probe; the "before" of the next interval
	marks []probeMark
}

// probeMark is one probe: when it ran, and the reference loop's wall and
// CPU time.
type probeMark struct {
	start, end time.Time
	wall, cpu  time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]byte, refClearBytes)}
	for i := range c.mem {
		c.mem[i] = uint32(i) * 2654435761
	}
	c.probe() // fault the buffer in and warm the loop
	c.marks = c.marks[:0]
	c.last = c.probe()
	return c
}

// probe times probeReps runs of each half of the reference loop and
// records the sums of their medians, in wall and in CPU time.
func (c *calibrator) probe() probeMark {
	var interp, clr, interpCPU, clrCPU [probeReps]time.Duration
	start := time.Now()
	for i := range interp {
		t0, u0 := time.Now(), cpuNow()
		c.sink += interpret(&c.mem, refIters)
		t1, u1 := time.Now(), cpuNow()
		clear(c.buf)
		c.buf[int(c.sink)&(refClearBytes-1)] = byte(c.sink)
		interp[i], clr[i] = t1.Sub(t0), time.Since(t1)
		interpCPU[i], clrCPU[i] = u1-u0, cpuNow()-u1
	}
	p := probeMark{start: start, end: time.Now(),
		wall: medianDur(interp[:]) + medianDur(clr[:]),
		cpu:  medianDur(interpCPU[:]) + medianDur(clrCPU[:])}
	c.marks = append(c.marks, p)
	return p
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// calibrate scales a raw host interval by nominal over the mean of the
// probes taken just before and just after it.
func calibrate(raw, before, after, nominal time.Duration) time.Duration {
	mean := (float64(before) + float64(after)) / 2
	return time.Duration(float64(raw) * float64(nominal) / mean)
}

// measure runs f and returns its wall time, its CPU time, and its
// calibrated CPU time. The probe taken after f is reused as the "before"
// probe of the next interval.
func (c *calibrator) measure(f func()) (wall, cpu, cal time.Duration) {
	before := c.last
	t0, u0 := time.Now(), cpuNow()
	f()
	wall, cpu = time.Since(t0), cpuNow()-u0
	c.last = c.probe()
	return wall, cpu, calibrate(cpu, before.cpu, c.last.cpu, nominalProbe)
}

// factor is the median calibration factor over every probe so far.
func (c *calibrator) factor() float64 {
	fs := make([]float64, len(c.marks))
	for i, p := range c.marks {
		fs[i] = float64(nominalProbe) / float64(p.cpu)
	}
	return median(fs)
}

// spanScales returns each span's calibration factor: nominal over the mean
// wall time of the last probe that ended before the span began and the
// first probe that began after it ended (only one of them at the ends of
// the history; 1 with no probe at all). Spans are timed on the wall clock,
// which is cheap to read at every call, so they are scaled by the probes'
// wall times. Span times are nanoseconds since epoch.
func spanScales(spans []span, marks []probeMark, epoch time.Time, nominal time.Duration) []float64 {
	scales := make([]float64, len(spans))
	for i, s := range spans {
		// before: marks[:b] ended by the span's start; after: marks[a:]
		// began at or after its end.
		b := sort.Search(len(marks), func(j int) bool { return int64(marks[j].end.Sub(epoch)) > s.Start })
		a := sort.Search(len(marks), func(j int) bool { return int64(marks[j].start.Sub(epoch)) >= s.End })
		var sum time.Duration
		n := 0
		if b > 0 {
			sum += marks[b-1].wall
			n++
		}
		if a < len(marks) {
			sum += marks[a].wall
			n++
		}
		scales[i] = 1
		if n > 0 {
			scales[i] = float64(nominal) * float64(n) / float64(sum)
		}
	}
	return scales
}
