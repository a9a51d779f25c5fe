// Command bench is the serving ledger: four closed-loop workloads over the
// learned GL+ path, in-process and on the wire, with per-layer attribution
// in a separate traced run. README.md has the tables; run it from this
// directory (run.sh does, after building into .bench_build/):
//
//	go run . [-workload W] [-seed N] [-seconds S] [-trace 1] [-out DIR]
//	go run . -compare DIR_A DIR_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+" (default: all four in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request streams")
	flag.IntVar(&o.seconds, "seconds", 14, "length of the timed phase (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "out", "directory for run records and span files")
	compare := flag.Bool("compare", false, "compare two directories of run records against BENCHMARK.json's bounds")
	flag.Parse()
	o.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two directories of run records"))
		}
		regressed, err := compareDirs(os.Stdout, "../BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloadNames
	if o.workload != "" {
		if !slices.Contains(workloadNames, o.workload) {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		todo = []string{o.workload}
	}
	for _, w := range todo {
		o.workload = w
		res, err := run(o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w, err))
		}
		if err := report(res); err != nil {
			fatal(fmt.Errorf("%s: %w", w, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// reported is one metric as written out.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// record is the run record written to <out>/<workload>.json (traced runs:
// <workload>_trace.json); -compare reads these back.
type record struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Trace      bool                `json:"trace"`
	Seconds    int                 `json:"seconds"`
	Slices     int                 `json:"slices"`
	Clients    int                 `json:"clients"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Metrics    map[string]reported `json:"metrics"`
	Commit     string              `json:"commit,omitempty"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"nproc"`
}

// report prints the run's metrics by name and unit, writes the run record
// and the span file, and ends with the one-line JSON result.
func report(res *outcome) error {
	// The result line carries exactly the contract's metrics: the end-to-end
	// ones of an untraced run, which also prints and records the unbounded
	// figures, or the per-layer ones of a traced run.
	defs, onLine := append(append([]metricDef(nil), endToEndMetrics...), unboundedMetrics...), len(endToEndMetrics)
	if res.opts.trace {
		defs, onLine = perLayerMetrics, len(perLayerMetrics)
	}
	if err := res.finite(defs); err != nil {
		return err
	}
	o := res.opts
	rec := record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Slices: res.slices, Clients: res.clients, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]reported{}, Commit: gitCommit(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	line := map[string]reported{}
	fmt.Printf("%s  seed=%d clients=%d slices=%d estimates=%d failed=%d\n",
		o.workload, o.seed, res.clients, res.slices, res.attempted, res.failed)
	for k, d := range defs {
		m := res.values[d.name]
		fmt.Printf("  %-30s %14.4f %-6s (n=%d)\n", d.name, m.value, d.unit, m.samples)
		rec.Metrics[d.name] = reported{m.value, d.unit, m.samples}
		if k < onLine {
			line[d.name] = reported{Value: m.value, Unit: d.unit}
		}
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	name := o.workload + ".json"
	if o.trace {
		name = o.workload + "_trace.json"
		if err := writeTrace(filepath.Join(o.outDir, "trace_"+o.workload+".json"), o.workload, o.seed, res.spanNames, res.recs); err != nil {
			return err
		}
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(body, '\n'), 0o644); err != nil {
		return err
	}

	last, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{true, res.attempted, res.failed, line})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// gitCommit names the checked-out commit, or nothing where git or the
// repository is absent (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
