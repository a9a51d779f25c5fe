package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
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
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses for its spread.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4) // negative or above 4 at a clamped end: extrapolates
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// judge compares the runs of one metric on one workload. worse is how far
// B's median is on the wrong side of A's, as a share of A's median
// (negative when B is better). Where either side's run-to-run spread is
// wider than the bound the row is unresolved, unless every run of B reads
// better than every run of A.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	sign := 1.0
	if !lowerIsBetter {
		worse, sign = -worse, -1
	}
	if max(spread(a), spread(b)) > bound {
		worstB, bestA := sign*b[0], sign*a[0]
		for _, v := range b {
			worstB = max(worstB, sign*v)
		}
		for _, v := range a {
			bestA = min(bestA, sign*v)
		}
		if worstB < bestA {
			return worse, verdictOK
		}
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// loadRuns reads every untraced run record under dir and groups the metric
// values by workload and metric name.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasPrefix(d.Name(), "trace_") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace || rec.Workload == "" {
			return nil
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
		return nil
	})
	return runs, err
}

// compareDirs prints one row per workload × end-to-end metric and reports
// whether any row regressed.
func compareDirs(w io.Writer, benchmarkPath, dirA, dirB string) (regressed bool, err error) {
	body, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(body, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns A/B\tmedian A\tmedian B\tworse by\tbound\tverdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("no runs of %s on %s in both %s and %s", m.Name, wl.Name, dirA, dirB)
			}
			worse, verdict := judge(va, vb, m.Better == "lower", m.Bound)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4f\t%.4f\t%+.2f%%\t%.3g%%\t%s\n",
				wl.Name, m.Name, m.Unit, len(va), len(vb), median(va), median(vb), 100*worse, 100*m.Bound, verdict)
		}
		// The figures without a bound get a row and no verdict.
		for _, d := range unboundedMetrics {
			va, vb := a[wl.Name][d.name], b[wl.Name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse := (median(vb) - median(va)) / median(va)
			if strings.HasSuffix(d.name, "_eps") {
				worse = -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4f\t%.4f\t%+.2f%%\t-\t(spread %.0f%% / %.0f%%)\n",
				wl.Name, d.name, d.unit, len(va), len(vb), median(va), median(vb), 100*worse, 100*spread(va), 100*spread(vb))
		}
	}
	return regressed, tw.Flush()
}
