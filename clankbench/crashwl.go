package main

import (
	"fmt"
	"time"

	"repro/internal/clank"
	"repro/internal/scheme"
	"repro/internal/verify"
)

// Crash-sweep bounds: every canonical pattern of crashOps ops over
// crashWords words and values 1..crashVals.
const (
	crashOps   = 3
	crashWords = 2
	crashVals  = 1
)

// crashConfigs are the five configurations the verify package's
// differential and crash tests lower onto the full pipeline.
func crashConfigs() []clank.Config {
	return []clank.Config{
		{ReadFirst: 1},
		{ReadFirst: 2, WriteFirst: 1},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 2, Opts: clank.OptAll &^ clank.OptIgnoreText},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, AddrPrefix: 1, PrefixLowBits: 1},
		{ReadFirst: 1, WriteBack: 1, Opts: clank.OptAll, TextStart: 0, TextEnd: 4},
	}
}

// crashMasks is the representative tear-mask trio: clean cut-before,
// clean cut-after, one blending pattern.
var crashMasks = []uint32{0, 0xFFFFFFFF, 0x55555555}

// crashSchemes are the schemes the sweep covers, with the scheme
// parameters the verify tests tune down so their triggers fire inside the
// tiny lowered programs.
var crashSchemes = []scheme.Factory{
	scheme.ClankFactory{},
	scheme.AlpacaFactory{TaskLen: 64},
	scheme.DiCAFactory{Interval: 96},
}

// crashSweep runs verify.Sweep with one worker and a CrashHarness, one
// (scheme, configuration) pair per chunk. The sweep is exhaustive, so
// the seed only rotates the order of the pairs.
type crashSweep struct {
	seed     uint64
	configs  []clank.Config
	expected []int64 // canonical patterns per configuration
	harness  []*verify.CrashHarness
}

func newCrashSweep(seed uint64) *crashSweep { return &crashSweep{seed: seed} }

func (w *crashSweep) setup(tr *tracer) error {
	w.configs = crashConfigs()
	w.expected = w.expected[:0]
	for _, cfg := range w.configs {
		var n int64
		id := tr.begin("verify.EnumerateCanonical")
		err := verify.EnumerateCanonical(crashOps, crashWords, crashVals, verify.ConfigSymmetry(cfg, crashWords),
			func(verify.Pattern) error { n++; return nil })
		tr.end(id, n)
		if err != nil {
			return err
		}
		w.expected = append(w.expected, n)
	}
	w.harness = w.harness[:0]
	for _, fac := range crashSchemes {
		h := verify.NewCrashHarness(crashOps)
		h.Masks = crashMasks
		h.Scheme = fac
		w.harness = append(w.harness, h)
	}
	return nil
}

func (w *crashSweep) round() int { return len(crashSchemes) * len(crashConfigs()) }

// tornProbeItems is how many of a layered chunk's patterns are re-run as a
// single clean and a single torn pipeline run.
const tornProbeItems = 4

func (w *crashSweep) chunk(c *chunkCtx) error {
	pairs := len(crashSchemes) * len(w.configs)
	pair := (c.r + int(w.seed%uint64(pairs))) % pairs
	si, ci := pair/len(w.configs), pair%len(w.configs)
	h, cfg, name := w.harness[si], w.configs[ci], crashSchemes[si].Name()

	var items int64
	var sample []verify.Pattern
	check := func(p verify.Pattern, words int, cfg clank.Config, sched verify.Schedule) error {
		items++
		c.tally.attempted++
		if c.layered {
			c.nextItem()
			if len(sample) < tornProbeItems {
				sample = append(sample, append(verify.Pattern(nil), p...))
			}
		}
		item := c.tr.begin("scheme." + name + ".item")
		id := c.tr.begin("verify.CrashHarness.Check")
		t0 := time.Now()
		err := h.Check(p, words, cfg, sched)
		c.m.latency(time.Since(t0))
		c.tr.end(id, 1)
		c.tr.end(item, 1)
		c.tr.setItem(-1)
		if err != nil {
			c.tally.fail("%s %s pattern %v: %v", name, cfg, p, err)
		}
		verdict := uint64(0)
		if err != nil {
			verdict = 1
		}
		c.dig.add(uint64(pair), patternKey(p), verdict)
		return err
	}
	s := &verify.Sweep{
		N: crashOps, Words: crashWords, Vals: crashVals,
		Configs:   []clank.Config{cfg},
		Schedules: []verify.Schedule{verify.FailAt(-1)},
		Canonical: true,
		Workers:   1,
		NoShrink:  true,
		MakeCheck: func() verify.CheckFunc { return check },
	}
	var st verify.Stats
	var err error
	c.m.timed(int(w.expected[ci]), func() { st, err = s.Run() })
	if err == nil && (st.Patterns != w.expected[ci] || items != w.expected[ci]) {
		c.tally.fail("%s %s: sweep checked %d patterns in %d runs, enumeration has %d",
			name, cfg, st.Patterns, items, w.expected[ci])
	}

	for _, p := range sample {
		id := c.tr.begin("verify.CheckTear.clean")
		err := h.CheckTear(p, crashWords, cfg, -1, 0)
		c.tr.end(id, 1)
		if err != nil {
			return fmt.Errorf("clean run of %v: %w", p, err)
		}
		id = c.tr.begin("verify.CheckTear.torn")
		err = h.CheckTear(p, crashWords, cfg, 0, crashMasks[2])
		c.tr.end(id, 1)
		if err != nil {
			return fmt.Errorf("torn run of %v: %w", p, err)
		}
	}
	return nil
}

// patternKey packs a pattern of up to eight ops into one word.
func patternKey(p verify.Pattern) uint64 {
	var k uint64
	for _, op := range p {
		v := uint64(op.Word)<<4 | uint64(op.Val)
		if op.Write {
			v |= 1 << 7
		}
		k = k<<8 | v
	}
	return k<<4 | uint64(len(p))
}
