package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
)

// endToEnd reads the end-to-end metrics' directions from a BENCHMARK.json:
// true for a metric where higher is better.
func endToEnd(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dirs := map[string]bool{}
	for _, m := range spec.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better is %q", path, m.Name, m.Better)
		}
		dirs[m.Name] = m.Better == "higher"
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return dirs, nil
}

// repeatRuns runs the workload n times, one child process each with seeds
// seed..seed+n-1, and prints each metric's median and quartiles. An
// interrupt or termination stops the running child too.
func repeatRuns(w io.Writer, name string, seed uint64, seconds float64, trace, n int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var results []result
	var lines [][]byte
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		line := lastLine(out)
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		results = append(results, r)
		lines = append(lines, line)
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s: %d runs of %gs\n", name, n, seconds)
	fmt.Fprintf(w, "%-40s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, m := range metricNames(results) {
		vs := values(results, m)
		q1, q3 := quartiles(vs)
		med := median(vs)
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %14.6g %8.2f%%\n", m, q1, med, q3, 100*(q3-q1)/med)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
	}
	return rs, sc.Err()
}

func metricNames(rs []result) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		for n := range r.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

func values(rs []result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// minPairs is the fewest pairs from which the paired rule shows a gain.
const minPairs = 10

// verdict applies the paired rule: over at least minPairs pairs, the change
// must win at least nine tenths of them (ties count for neither side) and
// its median must differ from the base's by more than the base's
// interquartile range.
type verdict struct {
	wins, losses, pairs int
	baseMed, newMed     float64
	baseIQR             float64
	gain                bool
}

func judge(base, change []float64, higherIsBetter bool) verdict {
	v := verdict{pairs: min(len(base), len(change))}
	for i := 0; i < v.pairs; i++ {
		d := change[i] - base[i]
		if !higherIsBetter {
			d = -d
		}
		switch {
		case d > 0:
			v.wins++
		case d < 0:
			v.losses++
		}
	}
	v.baseMed, v.newMed = median(base), median(change)
	q1, q3 := quartiles(base)
	v.baseIQR = q3 - q1
	gap := v.newMed - v.baseMed
	if !higherIsBetter {
		gap = -gap
	}
	v.gain = v.pairs >= minPairs && 10*v.wins >= 9*v.pairs && gap > v.baseIQR
	return v
}

// failures sums the failed and attempted items of a set of runs and counts
// the runs that were not correct.
func failures(rs []result) (failed, attempted int64, incorrect int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			incorrect++
		}
	}
	return failed, attempted, incorrect
}

// gainRefusal returns why no gain may be shown from these runs, or "": a
// run that was not correct, or a change that fails a larger share of its
// items than the base.
func gainRefusal(base, change []result) string {
	bf, ba, bi := failures(base)
	cf, ca, ci := failures(change)
	switch {
	case bi+ci > 0:
		return fmt.Sprintf("%d base and %d change runs are not correct", bi, ci)
	case cf*ba > bf*ca:
		return fmt.Sprintf("the change failed %d of %d items, the base %d of %d", cf, ca, bf, ba)
	}
	return ""
}

// compareFiles compares two result files pair by pair, in file order, on
// the end-to-end metrics that benchPath declares.
func compareFiles(w io.Writer, benchPath, basePath, changePath string) error {
	if basePath == "" || changePath == "" {
		return fmt.Errorf("compare mode needs --compare BASE and --with CHANGE")
	}
	dirs, err := endToEnd(benchPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d base runs, %d change runs\n", len(base), len(change))
	refusal := gainRefusal(base, change)
	if refusal != "" {
		fmt.Fprintf(w, "no gain can be shown: %s\n", refusal)
	}
	fmt.Fprintf(w, "%-40s %12s %12s %12s %9s  %s\n", "metric", "base med", "change med", "base iqr", "wins", "verdict")
	names := make([]string, 0, len(dirs))
	for m := range dirs {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		v := judge(values(base, m), values(change, m), dirs[m])
		word := "no gain shown"
		switch {
		case v.pairs == 0:
			word = "missing"
		case v.gain && refusal == "":
			word = "gain"
		}
		fmt.Fprintf(w, "%-40s %12.6g %12.6g %12.6g %4d/%-4d  %s\n", m, v.baseMed, v.newMed, v.baseIQR, v.wins, v.pairs, word)
	}
	return nil
}
