// Command bench is the repository's benchmark: four wall-clock workloads
// over the real schemble-server binary and the real internal/serve
// runtime, eight end-to-end metrics, and an outside-in per-layer trace.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./bench -seed 7                 every workload, untraced + traced
//	go run ./bench -workload burst         one workload, untraced + traced
//	go run ./bench -repeat 2               the full set twice, with a spread gate
//	go run ./bench -quick                  2 s windows on a small pipeline fit
//
// The benchmark driver runs one measurement per invocation,
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// and reads the JSON object printed as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Window lengths when -seconds is not given.
const (
	fullSeconds   = 30.0
	tracedSeconds = 20.0 // two 10 s passes: reference, then traced
	quickSeconds  = 2.0
)

// pass is one of the two kinds of run: untraced for the end-to-end
// metrics, traced for the per-layer ones. Its index is the -trace value.
type pass struct {
	kind           string
	defs           []metricDef
	defaultSeconds float64
	run            func(s runSpec) (runResult, error)
}

var passes = [2]pass{
	{"end-to-end", endToEnd, fullSeconds, runUntraced},
	{"per-layer (traced)", perLayer, tracedSeconds, func(s runSpec) (runResult, error) {
		return runTraced(s, tracePath(s.w))
	}},
}

// measure runs one pass of one workload and prints its report to out.
func (p pass) measure(out io.Writer, base runSpec, w *workload) (runResult, error) {
	s := base
	s.w = w
	if s.seconds <= 0 {
		s.seconds = p.defaultSeconds
		if s.quick {
			s.seconds = quickSeconds
		}
	}
	res, err := p.run(s)
	if err == nil {
		report(out, w, p, res)
	}
	return res, err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Uint64("seed", 7, "traffic seed: the same seed gives the same requests")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default 30, traced 20, -quick 2)")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; with -workload, prints one JSON result line")
		quick        = flag.Bool("quick", false, "short windows on a small pipeline fit, for smoke tests")
		repeat       = flag.Int("repeat", 1, "run the full set this many times and gate the spread between them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *traceMode >= len(passes) {
		fatal(fmt.Errorf("-trace takes 0 or 1, not %d", *traceMode))
	}

	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []*workload{w}
	}
	base := runSpec{seed: *seed, seconds: *seconds, quick: *quick}

	if *workloadName != "" && *traceMode >= 0 {
		os.Exit(driverRun(passes[*traceMode], base, selected[0]))
	}
	ok := true
	var sets []map[string]runResult
	for i := 0; i < *repeat; i++ {
		set, setOK := runSet(selected, base, *traceMode)
		sets = append(sets, set)
		ok = ok && setOK
	}
	if *repeat > 1 {
		ok = printSpread(selected, sets) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// environment is recorded with every result. It carries no timestamp: two
// runs of one tree on one machine write the same record.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
}

func currentEnv(seed uint64) environment {
	return environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed}
}

// driverRun is one measurement for the benchmark driver: the report on
// standard error, the result object as the last line of standard output.
func driverRun(p pass, base runSpec, w *workload) int {
	res, err := p.measure(os.Stderr, base, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.tally.failed == 0, res.tally.sent, res.tally.failed, map[string]value{}}
	for _, d := range p.defs {
		out.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// tracePath is where a traced run leaves its spans.
func tracePath(w *workload) string {
	dir, err := outDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "trace-"+w.name+".jsonl")
}

// runSet runs the selected workloads once: untraced, then traced, unless
// mode picks one. It prints every metric by name with its unit and writes
// bench/out/results.json. The returned map holds the untraced results.
func runSet(selected []*workload, base runSpec, mode int) (map[string]runResult, bool) {
	ok := true
	untraced := make(map[string]runResult)
	type saved struct {
		Sent    int                `json:"sent"`
		Failed  int                `json:"failed"`
		Metrics map[string]float64 `json:"metrics"`
	}
	results := make(map[string]saved)
	fmt.Printf("environment: %+v\n", currentEnv(base.seed))
	for _, w := range selected {
		merged := saved{Metrics: map[string]float64{}}
		for i, p := range passes {
			if mode >= 0 && mode != i {
				continue
			}
			res, err := p.measure(os.Stdout, base, w)
			if err != nil {
				fatal(err)
			}
			if i == 0 {
				untraced[w.name] = res
			}
			ok = ok && res.tally.failed == 0 && res.invalid == ""
			merged.Sent += res.tally.sent
			merged.Failed += res.tally.failed
			for k, v := range res.metrics {
				merged.Metrics[k] = v
			}
		}
		results[w.name] = merged
	}
	if dir, err := outDir(); err == nil {
		b, _ := json.MarshalIndent(struct {
			Environment environment      `json:"environment"`
			Workloads   map[string]saved `json:"workloads"`
		}{currentEnv(base.seed), results}, "", "  ")
		if err := os.WriteFile(filepath.Join(dir, "results.json"), append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	return untraced, ok
}

// report prints one run: the accounting line, then every metric of defs
// by name with its unit.
func report(out io.Writer, w *workload, p pass, res runResult) {
	fmt.Fprintf(out, "\n== %s: %s ==\n", w.name, p.kind)
	fmt.Fprintf(out, "sent %d  answered %d  failed %d  | %d on-time latency samples, highest supported percentile p%g, p99 %.3f ms\n",
		res.tally.sent, res.tally.answered, res.tally.failed, res.samples, res.tail*100, res.p99MS)
	if res.samples > 0 && res.tail < tailPercentile {
		fmt.Fprintf(out, "note: fewer than %d samples lie beyond p%g; read it as an estimate\n", tailSupport, tailPercentile*100)
	}
	if res.invalid != "" {
		fmt.Fprintln(out, "INVALID:", res.invalid)
	}
	for _, p := range res.tally.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	for _, d := range p.defs {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}
	if res.accounts > 0 {
		fmt.Fprintf(out, "submit + dispatch wait + exec span + finish (p50 each) account for %.1f%% of the traced latency p50\n", res.accounts*100)
	}
}

// printSpread prints, per workload, how far the repeated sets' end-to-end
// metrics lie apart, and fails when any lies further than its own bound.
func printSpread(selected []*workload, sets []map[string]runResult) bool {
	ok := true
	fmt.Printf("\n== spread over %d sets ==\n", len(sets))
	for _, w := range selected {
		fmt.Printf("%s\n", w.name)
		for _, d := range endToEnd {
			var vals []float64
			for _, set := range sets {
				if r, found := set[w.name]; found {
					vals = append(vals, r.metrics[d.name])
				}
			}
			sort.Float64s(vals)
			diff := relDiff(vals)
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = fmt.Sprintf("%.4f", v)
			}
			fmt.Printf("  %-18s %-32s differ by %6.2f%%  bound %5.1f%%  %s\n",
				d.name, strings.Join(strs, " "), diff*100, d.bound*100, verdict)
		}
	}
	return ok
}
