package main

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/intermittent"
)

func TestTracedResultCountsProbeFailures(t *testing.T) {
	own := &tally{attempted: 48, failed: 5}
	known := &tally{attempted: 12, failed: 3}
	clean := &tally{attempted: 30}
	res := tracedResult(own, map[string]*tally{"fleet-exec": known, "crash-sweep": clean}, nil)
	if !res.Correct || res.Attempted != 48 || res.Failed != 5 {
		t.Errorf("known failures only: %+v, want correct with the workload's own counts", res)
	}
	broken := &tally{attempted: 30, failed: 1, wrong: 1}
	res = tracedResult(own, map[string]*tally{"fleet-exec": known, "crash-sweep": broken}, nil)
	if res.Correct {
		t.Error("a probe item that fails other than by a known fault must make the run incorrect")
	}
	res = tracedResult(&tally{attempted: 10, failed: 1, wrong: 1}, nil, nil)
	if res.Correct {
		t.Error("a failed item of the workload's own must make the run incorrect")
	}
}

func TestTallyKnownFailures(t *testing.T) {
	var tl tally
	tl.failAs(true, "k")
	tl.fail("w")
	if tl.failed != 2 || tl.wrong != 1 {
		t.Errorf("tally %+v, want 2 failed of which 1 wrong", tl)
	}
}

// roundWorkload counts its chunks; a round is five chunks.
type roundWorkload struct{ chunks int }

func (w *roundWorkload) setup(*tracer) error     { return nil }
func (w *roundWorkload) chunk(c *chunkCtx) error { w.chunks++; c.tally.attempted++; return nil }
func (w *roundWorkload) round() int              { return 5 }

func TestRunsAttemptWholeRounds(t *testing.T) {
	w := &roundWorkload{}
	c := &chunkCtx{m: &meter{}, tally: &tally{}}
	if err := warmUp(w, c, nil); err != nil {
		t.Fatal(err)
	}
	if w.chunks != 5 || c.r != 5 {
		t.Fatalf("warm-up ran %d chunks, want one whole round of 5", w.chunks)
	}
	if err := runChunks(w, c, 0, nil); err != nil {
		t.Fatal(err)
	}
	if w.chunks != 10 {
		t.Fatalf("%d chunks after a timed phase, want whole rounds", w.chunks)
	}
}

func TestCheckDeviceKnownFault(t *testing.T) {
	k := &kernel{cycles: 1000, outputs: []uint32{1, 2}}
	good := fleet.DeviceResult{Completed: true, Outputs: 2, UsefulCycles: 1000, CkptCycles: 50, WallCycles: 1050}
	if msg, _ := checkDevice(k, &good); msg != "" {
		t.Fatalf("a correct device failed: %s", msg)
	}
	drift := good
	drift.UsefulCycles, drift.WallCycles = 990, 1040
	if msg, known := checkDevice(k, &drift); msg == "" || known {
		t.Errorf("useful-cycles drift on a kernel without a known fault: %q known %v, want an unexplained failure", msg, known)
	}
	k.knownFault = true
	if msg, known := checkDevice(k, &drift); msg == "" || !known {
		t.Errorf("useful-cycles drift on a kernel with the known fault: %q known %v, want a known failure", msg, known)
	}
	ledger := drift
	ledger.WallCycles++
	if msg, known := checkDevice(k, &ledger); msg == "" || known {
		t.Errorf("broken ledger: %q known %v, want an unexplained failure", msg, known)
	}
	fewer := good
	fewer.Outputs = 1
	if msg, known := checkDevice(k, &fewer); msg == "" || known {
		t.Errorf("missing output: %q known %v, want an unexplained failure", msg, known)
	}
}

func TestCompareDeviceKnownFault(t *testing.T) {
	k := &kernel{kernelSrc: kernelSrc{ref: []uint32{7, 8}}, outputs: []uint32{7, 8}}
	st := intermittent.Stats{Completed: true, Outputs: []uint32{7, 8}, UsefulCycles: 100, WallCycles: 100}
	r := fleet.DeviceResult{Completed: true, Outputs: 2, UsefulCycles: 100, WallCycles: 100, Insns: 40}
	if msg, _ := compareDevice(k, &r, st, 40, nil); msg != "" {
		t.Fatalf("a matching device failed: %s", msg)
	}
	wrong := st
	wrong.Outputs = []uint32{9, 8}
	if msg, known := compareDevice(k, &r, wrong, 40, nil); msg == "" || known {
		t.Errorf("wrong outputs without a known fault: %q known %v", msg, known)
	}
	k.knownFault = true
	if msg, known := compareDevice(k, &r, wrong, 40, nil); msg == "" || !known {
		t.Errorf("wrong outputs on a kernel with the known fault: %q known %v", msg, known)
	}
	// A per-device run that differs from fleet.Run's is never the known fault.
	if msg, known := compareDevice(k, &r, wrong, 41, nil); msg == "" || known {
		t.Errorf("counts differ from fleet.Run: %q known %v", msg, known)
	}
}
