package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// quantiles([1, 2], n=4) is [0.75, 1.5, 2.25]: the ends extrapolate.
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v, want 4, 4", q1, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, []float64{101, 100, 100, 99, 102}, true, verdictOK},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, true, verdictRegressed},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, true, verdictOK},
		{"less throughput", steady, []float64{80, 81, 79, 80, 80}, false, verdictRegressed},
		{"more throughput", steady, []float64{120, 121, 119, 120, 120}, false, verdictOK},
		{"noisy", steady, []float64{70, 100, 130, 85, 115}, true, verdictUnresolved},
		{"noisy but every run better", []float64{100, 140, 180, 120, 160}, []float64{50, 60, 70, 55, 65}, true, verdictOK},
		{"inside the bound", steady, []float64{108, 109, 107, 108, 108}, true, verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.lowerIsBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worse, _ := judge(steady, []float64{120, 120, 120}, true, 0.10); math.Abs(worse-0.20) > 1e-12 {
		t.Errorf("worse by %v, want 0.20", worse)
	}
}

func writeRuns(t *testing.T, dir string, p50s []float64) {
	t.Helper()
	for i, v := range p50s {
		rec := record{Workload: "w", Metrics: map[string]reported{
			"lat_p50_us":           {Value: v, Unit: "us"},
			"sustained.lat_p50_us": {Value: 3 * v, Unit: "us"},
		}}
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		run := filepath.Join(dir, fmt.Sprintf("run%d", i))
		if err := os.MkdirAll(run, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(run, "w.json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		// Traced records and span files beside it are not end-to-end runs.
		traced, _ := json.Marshal(record{Workload: "w", Trace: true})
		if err := os.WriteFile(filepath.Join(run, "w_trace.json"), traced, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(run, "trace_w.json"), []byte(`{"spans":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	tmp := t.TempDir()
	bench := filepath.Join(tmp, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"lat_p50_us","unit":"us","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow := filepath.Join(tmp, "a"), filepath.Join(tmp, "same"), filepath.Join(tmp, "slow")
	writeRuns(t, a, []float64{100, 101, 99})
	writeRuns(t, same, []float64{100, 102, 101})
	writeRuns(t, slow, []float64{130, 131, 129})

	var out bytes.Buffer
	regressed, err := compareDirs(&out, bench, a, same)
	if err != nil || regressed {
		t.Fatalf("same code: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "3/3") || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	// A figure without a bound gets a row, whatever it reads, and no verdict.
	if !strings.Contains(out.String(), "sustained.lat_p50_us") || strings.Contains(out.String(), "lat_p95_us") {
		t.Errorf("unbounded rows:\n%s", out.String())
	}
	out.Reset()
	if regressed, err = compareDirs(&out, bench, a, slow); err != nil || !regressed {
		t.Fatalf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if _, err = compareDirs(&out, bench, a, filepath.Join(tmp, "empty")); err == nil {
		t.Error("a side without runs should be an error")
	}
}

// BENCHMARK.json repeats the catalogue the program reports; the two must
// not drift apart.
func TestBenchmarkFileMatchesTheCatalogue(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(file), kind, len(defs))
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d is %s [%s], the program reports %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEndMetrics)
	check("per-layer", bf.PerLayer, perLayerMetrics)
}
