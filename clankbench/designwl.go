package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/mibench"
	"repro/internal/policysim"
	"repro/internal/power"
)

// designKernels are the traces the design sweep replays.
var designKernels = []string{"crc", "sha", "dijkstra"}

// designPoints is the number of buffer configurations per chunk; each runs
// once under continuous power and once under a harvested supply.
const designPoints = 24

// designMeanOn is the harvested supply's mean on-time in cycles.
const designMeanOn = 20_000

// designTrace is one kernel's trace captured at set-up.
type designTrace struct {
	name   string
	img    *ccc.Image
	exempt map[uint32]bool
	bt     *policysim.BatchTrace
}

// designSweep runs policysim.Sweep with one worker over a seeded sample of
// a buffer-capacity grid, one kernel per chunk.
type designSweep struct {
	seed   uint64
	traces []designTrace
	grid   []clank.Config
}

func newDesignSweep(seed uint64) *designSweep { return &designSweep{seed: seed} }

// designGrid is the buffer-capacity grid the chunks sample from.
func designGrid() []clank.Config {
	var g []clank.Config
	for _, rf := range []int{2, 4, 8, 16, 32} {
		for _, wf := range []int{0, 2, 4, 8} {
			for _, wb := range []int{0, 1, 2, 4} {
				for _, ap := range []int{0, 4} {
					cfg := clank.Config{ReadFirst: rf, WriteFirst: wf, WriteBack: wb, AddrPrefix: ap, Opts: clank.OptAll}
					if ap > 0 {
						cfg.PrefixLowBits = 6
					}
					g = append(g, cfg)
				}
			}
		}
	}
	return g
}

func (w *designSweep) setup(tr *tracer) error {
	w.grid = designGrid()
	w.traces = w.traces[:0]
	for _, name := range designKernels {
		b, _ := mibench.ByName(name)
		id := tr.begin("ccc.Compile")
		img, err := ccc.Compile(b.Source)
		tr.end(id, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		id = tr.begin("armsim.CollectTrace")
		tc, err := armsim.CollectTraceCols(img.Bytes, maxKernelCycles)
		tr.end(id, int64(tc.Len()))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		exempt := ccc.ProgramIdempotentPCs(tc.Rows())
		id = tr.begin("policysim.NewBatchTrace")
		bt := policysim.NewBatchTraceCols(tc, img.TextStart, img.TextEnd)
		tr.end(id, int64(bt.Len()))
		w.traces = append(w.traces, designTrace{name, img, exempt, bt})
	}
	return nil
}

// jobs builds chunk r's design points: designPoints configurations drawn
// from the grid, first all under continuous power, then all under
// privately seeded harvested supplies.
func (w *designSweep) jobs(r int, t *designTrace) []policysim.Job {
	rng := rand.New(rand.NewSource(int64(chunkSeed(w.seed, r))))
	pick := rng.Perm(len(w.grid))[:designPoints]
	jobs := make([]policysim.Job, 0, 2*designPoints)
	for _, powered := range []bool{false, true} {
		for i, gi := range pick {
			cfg := w.grid[gi]
			cfg.TextStart, cfg.TextEnd = t.img.TextStart, t.img.TextEnd
			cfg.ExemptPCs = t.exempt
			o := policysim.Options{}
			if powered {
				o.Supply = power.NewSupply(power.Exponential{Mean: designMeanOn, Min: minOn}, supplySeed(w.seed, r, i))
				o.ProgressDefault = designMeanOn / 4
			}
			jobs = append(jobs, policysim.Job{Config: cfg, Opts: o})
		}
	}
	return jobs
}

func (w *designSweep) round() int { return len(designKernels) }

func supplySeed(seed uint64, r, i int) int64 {
	return int64(chunkSeed(seed^uint64(r)<<20, i))
}

func (w *designSweep) chunk(c *chunkCtx) error {
	t := &w.traces[c.r%len(w.traces)]
	jobs := w.jobs(c.r, t)
	var res []policysim.Result
	var err error
	if !c.layered {
		var d time.Duration
		c.m.timed(len(jobs), func() {
			t0 := time.Now()
			res, err = (&policysim.Sweep{Trace: t.bt, Jobs: jobs, Workers: 1}).Run()
			d = time.Since(t0)
		})
		for range jobs {
			c.m.latency(d / time.Duration(len(jobs)))
		}
	} else {
		// Layered: the two engines as separate sweeps, so each gets its
		// own span and per-access figure.
		c.m.timed(len(jobs), func() {
			half := len(jobs) / 2
			var cont, pow []policysim.Result
			var err2 error
			id := c.tr.begin("policysim.Sweep.lockstep")
			cont, err = (&policysim.Sweep{Trace: t.bt, Jobs: jobs[:half], Workers: 1}).Run()
			c.tr.end(id, int64(t.bt.Len()*half))
			id = c.tr.begin("policysim.Sweep.powered")
			pow, err2 = (&policysim.Sweep{Trace: t.bt, Jobs: jobs[half:], Workers: 1}).Run()
			c.tr.end(id, int64(t.bt.Len()*(len(jobs)-half)))
			res = append(cont, pow...)
			if err == nil {
				err = err2
			}
		})
	}
	if err != nil {
		return fmt.Errorf("design sweep %s chunk %d: %w", t.name, c.r, err)
	}
	for i, r := range res {
		c.tally.attempted++
		c.tally.counts.Jobs++
		c.tally.counts.PolicyCheckpoints += int64(r.Checkpoints)
		if msg := checkJob(t, jobs[i], r); msg != "" {
			c.tally.fail("%s chunk %d job %d (%s): %s", t.name, c.r, i, jobs[i].Config, msg)
		}
		c.dig.add(uint64(c.r%len(w.traces)), uint64(i), r.WallCycles, r.CkptCycles, r.RestartCycles,
			r.ReexecCycles, uint64(r.Checkpoints), uint64(r.Restarts), uint64(r.BarrenBoots))
	}

	// Re-run a sample with the reference monitor on, outside the timed
	// part: warm-up and layered chunks re-run one continuous and one
	// powered job, timed end-to-end chunks none.
	if c.dig != nil || c.layered {
		for _, i := range []int{c.r % designPoints, designPoints + c.r%designPoints} {
			j := w.jobs(c.r, t)[i]
			j.Opts.Verify = true
			again, err := policysim.SimulateBatch(t.bt, []policysim.Job{j})
			if err != nil || again[0] != res[i] {
				c.tally.fail("%s chunk %d job %d: verified re-run %+v (err %v) differs from %+v",
					t.name, c.r, i, again, err, res[i])
			}
		}
	}
	return nil
}

// checkJob checks one design point against properties every replay must
// have: it completes, its cycle ledger sums to its wall cycles, and under
// continuous power it never restarts and does exactly the trace's work.
func checkJob(t *designTrace, j policysim.Job, r policysim.Result) string {
	switch {
	case !r.Completed:
		return "did not complete"
	case r.UsefulCycles+r.CkptCycles+r.RestartCycles+r.ReexecCycles != r.WallCycles:
		return fmt.Sprintf("ledger %d+%d+%d+%d != wall %d",
			r.UsefulCycles, r.CkptCycles, r.RestartCycles, r.ReexecCycles, r.WallCycles)
	case r.UsefulCycles != t.bt.TotalCycles():
		return fmt.Sprintf("useful cycles %d, trace total %d", r.UsefulCycles, t.bt.TotalCycles())
	case j.Opts.Supply == nil && (r.Restarts != 0 || r.ReexecCycles != 0):
		return fmt.Sprintf("continuous power: %d restarts, %d re-executed cycles", r.Restarts, r.ReexecCycles)
	}
	return ""
}
