package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet maps workload → metric → the values of every saved run.
type runSet map[string]map[string][]float64

// readRuns reads every file in dir as one run's standard output: the
// "srvperf workload=..." header names the workload, the last line holds
// the metrics.
func readRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		wl, res, err := parseRun(path)
		if err != nil {
			return nil, err
		}
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[wl][name] = append(set[wl][name], m.Value)
		}
	}
	return set, nil
}

func parseRun(path string) (string, jsonResult, error) {
	var res jsonResult
	f, err := os.Open(path)
	if err != nil {
		return "", res, err
	}
	defer f.Close()
	var workload, last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "srvperf ") {
			for _, field := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(field, "workload="); ok {
					workload = v
				}
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", res, fmt.Errorf("%s: %w", path, err)
	}
	if workload == "" {
		return "", res, fmt.Errorf("%s: no srvperf header line", path)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", res, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return workload, res, nil
}

// quartiles returns the first quartile, median and third quartile of xs,
// the quartiles as Python's statistics.quantiles(xs, n=4) computes them
// (the "exclusive" method), so the spreads match the ones the benchmark's
// acceptance uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// verdict classifies B against A for one bounded metric: within bound,
// outside bound, or unresolved when either side's spread (quartile
// distance over median) is wider than the bound, unless every run of B
// reads better than every run of A.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max((q3a-q1a)/ma, (q3b-q1b)/mb)
	if spread > bound {
		if allBetter(a, b, lowerBetter) {
			return "within bound (every B run better)"
		}
		return fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*spread)
	}
	if worse > bound {
		return "OUTSIDE bound"
	}
	return "within bound"
}

func allBetter(a, b []float64, lowerBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, for every metric × workload, each set's median and
// quartiles and, for end-to-end metrics, the verdict under the bound in
// BENCHMARK.json.
func runCompare(w io.Writer, benchJSON, dirA, dirB string) error {
	bf, err := readBenchmarkFile(benchJSON)
	if err != nil {
		return err
	}
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; median [q1 q3] (runs)\n", dirA, dirB)
	row := func(wl, name, unit string, xs, ys []float64, tail string) {
		q1a, ma, q3a := quartiles(xs)
		q1b, mb, q3b := quartiles(ys)
		fmt.Fprintf(w, "%-14s %-32s %-13s A %.6g [%.6g %.6g] (%d)  B %.6g [%.6g %.6g] (%d)  %+.1f%%  %s\n",
			wl, name, unit, ma, q1a, q3a, len(xs), mb, q1b, q3b, len(ys), 100*(mb-ma)/ma, tail)
	}
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xs, ys := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			row(wl.Name, m.Name, m.Unit, xs, ys,
				fmt.Sprintf("bound %.0f%%: %s", 100*m.Bound, verdict(xs, ys, m.Better == "lower", m.Bound)))
		}
		for _, m := range bf.PerLayer {
			xs, ys := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			row(wl.Name, m.Name, m.Unit, xs, ys, "per-layer, "+m.Better+" is better")
		}
	}
	return nil
}
