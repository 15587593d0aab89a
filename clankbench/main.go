// Command clankbench is the repository's benchmark: one process runs one
// workload on one simulation goroutine, checks every item's outputs, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload fleet-exec --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// a traced pass instead, prints the per-layer metrics, and writes a
// Chrome trace-event file. --repeat and --compare measure steadiness and
// compare two sets of results (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	repeat := flag.Int("repeat", 0, "run the workload this many times, one process each, with seeds seed, seed+1, ...; print medians and quartiles")
	out := flag.String("out", "", "with --repeat: also write each run's result line to this file")
	compare := flag.String("compare", "", "compare mode: result file (one JSON result per line) of the base")
	with := flag.String("with", "", "compare mode: result file of the change")
	flag.Parse()

	if *compare != "" || *with != "" {
		if err := compareFiles(os.Stdout, "BENCHMARK.json", *compare, *with); err != nil {
			fatal(err)
		}
		return
	}
	spec, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *repeat > 0 {
		if err := repeatRuns(os.Stdout, *name, *seed, *seconds, *trace, *repeat, *out); err != nil {
			fatal(err)
		}
		return
	}

	var res result
	var err error
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = ".bench_build/trace-" + *name + ".json"
		}
		res, err = runTraced(spec, *seed, *seconds, path)
	} else {
		res, err = runUntraced(spec, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clankbench:", err)
	os.Exit(1)
}

// printMetrics writes metrics to stderr by name, with units, in name
// order; the JSON line on stdout carries the same figures.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
