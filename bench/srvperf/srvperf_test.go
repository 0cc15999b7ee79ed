package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const benchmarkJSON = "../../BENCHMARK.json"

func names(specs []spec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name+" "+s.unit)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkFileMatchesProgram: BENCHMARK.json declares exactly the
// workloads and metrics the program runs and prints.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var wls, e2e, layer []spec
	for _, w := range bf.Workloads {
		wls = append(wls, spec{w.Name, ""})
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	var progWls []spec
	for _, w := range workloadList {
		progWls = append(progWls, spec{w.name, ""})
	}
	for _, c := range []struct {
		what      string
		file, got []spec
	}{{"workloads", wls, progWls}, {"end_to_end", e2e, e2eSpecs}, {"per_layer", layer, layerSpecs}} {
		if f, g := strings.Join(names(c.file), ", "), strings.Join(names(c.got), ", "); f != g {
			t.Errorf("%s: BENCHMARK.json has\n  %s\nthe program prints\n  %s", c.what, f, g)
		}
	}
}

// TestSmoke runs every workload for half a second, untraced and traced,
// and checks that every check passes and every declared metric is printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer func(n int) { setupRuns = n }(setupRuns)
	setupRuns = 1
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: 0.5, trace: traced,
				root: "../..", spans: filepath.Join(t.TempDir(), "spans.ndjson")}
			oc, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			res := report(o, oc)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, oc.problems)
			}
			want := map[string]bool{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = true
				}
				if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span NDJSON written: %v", w.name, err)
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = true
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, traced, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompare flags a steady 30% throughput drop and reports a metric whose
// spread is wider than its bound as unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, jobs, lat float64) {
		d := filepath.Join(dir, set)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "srvperf workload=hot-hits seed=1 seconds=1 trace=0\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{` +
			`"jobs_per_s":{"value":` + ftoa(jobs) + `,"unit":"1/s"},` +
			`"latency_p50_ms":{"value":` + ftoa(lat) + `,"unit":"ms"}}}` + "\n"
		if err := os.WriteFile(filepath.Join(d, "hot-hits."+ftoa(float64(i))+".out"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write("A", i, 1000+float64(i), 1+float64(i)*0.001)
		write("B", i, 700+float64(i), 1+float64(i)*0.5)
	}
	var out bytes.Buffer
	if err := runCompare(&out, benchmarkJSON, filepath.Join(dir, "A"), filepath.Join(dir, "B")); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[0] == "hot-hits" {
			lines[f[1]] = l
		}
	}
	if !strings.Contains(lines["jobs_per_s"], "OUTSIDE bound") {
		t.Errorf("a 30%% throughput drop is not flagged:\n%s", out.String())
	}
	if !strings.Contains(lines["latency_p50_ms"], "unresolved") {
		t.Errorf("a spread wider than the bound is not unresolved:\n%s", out.String())
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
