// Command bench is divflow's benchmark: four workloads, six gated
// end-to-end metrics, and a separate traced run for the per-layer numbers.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// setupsPerPass is how many times a pass is set up before it is measured;
// a run reports the median over all its set-ups.
const setupsPerPass = 2

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	defs              []metricDef
}

// runWorkload measures the workload's passes with tracing off, each after
// its own set-ups, and reduces them to the end-to-end metrics — or, traced,
// takes the per-layer metrics instead.
func runWorkload(w *workload, seed int64, passes int, env *runEnv, traced bool) (*report, error) {
	rep := &report{workload: w.name}
	if traced {
		return rep, traceWorkload(w, seed, passes, env, rep)
	}
	var setups []float64
	var results []*passResult
	var first *passInput
	for p := 0; p < passes; p++ {
		var in *passInput
		for i := 0; i < setupsPerPass; i++ {
			start := now()
			var err error
			if in, err = w.inputs(subSeed(seed, w.name, p), env); err != nil {
				return rep, fmt.Errorf("inputs: %w", err)
			}
			warm, err := w.pass(w.prefix(in), env, nil)
			if err != nil {
				return rep, fmt.Errorf("warm-up: %w", err)
			}
			rep.attempted += warm.attempted
			rep.failed += warm.failed
			setups = append(setups, since(start).Seconds())
		}
		if p == 0 {
			first = in
		}
		runtime.GC()
		res, err := w.pass(in, env, nil)
		if err != nil {
			return rep, fmt.Errorf("pass %d: %w", p, err)
		}
		res.held = heldMB()
		results = append(results, res)
		rep.attempted += res.attempted
		rep.failed += res.failed
	}
	if w.exact {
		// The first pass once more: its counts and exact flows must repeat.
		again, err := w.pass(first, env, nil)
		if err != nil {
			return rep, fmt.Errorf("repeated pass: %w", err)
		}
		rep.attempted += again.attempted
		rep.failed += again.failed
		if a, b := results[0].exactState(), again.exactState(); a != b {
			return rep, fmt.Errorf("two passes on one input differ:\n  %s\n  %s", a, b)
		}
	}
	rep.metrics, rep.defs = endToEndValues(setups, results), endToEnd
	if rate := medianRate(results); rate < w.minRate {
		return rep, fmt.Errorf("the median pass attained %.1f jobs/s, below the %.1f the workload must sustain", rate, w.minRate)
	}
	if !finite(rep.metrics) {
		return rep, errors.New("a metric is not a finite number")
	}
	if rep.failed > 0 {
		return rep, fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	rep.correct = true
	return rep, nil
}

// traceWorkload generates the inputs a trace measures — three at the
// reference pass count, fewer on a shorter run — and takes the per-layer
// metrics on them. A traced run sets nothing up and reports no set-up time.
func traceWorkload(w *workload, seed int64, passes int, env *runEnv, rep *report) error {
	n := (passes + 7) / 8
	if n > 3 {
		n = 3
	}
	var ins []*passInput
	for p := 0; p < n; p++ {
		in, err := w.inputs(subSeed(seed, w.name, p), env)
		if err != nil {
			return fmt.Errorf("inputs: %w", err)
		}
		ins = append(ins, in)
	}
	t := newTracer(env)
	err := w.trace(t, ins)
	if werr := t.rec.write(env.out, w.name); err == nil {
		err = werr
	}
	t.set("trace.rss_peak_mb", maxRSSMB())
	rep.metrics, rep.defs = t.values(), perLayer
	rep.attempted, rep.failed = t.attempted, t.failed
	if err == nil && rep.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	rep.correct = err == nil
	return err
}

// print writes the report as one line per metric and, last, the result
// object the benchmark contract asks for.
func (r *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, d := range r.defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-14s %-32s %14.6g %-7s better=%s", r.workload, d.Name, v, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound=%.2f", d.Bound)
		}
		fmt.Fprintln(w, line)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	fmt.Fprintf(w, "%-14s operations attempted=%d failed=%d correct=%v\n", r.workload, r.attempted, r.failed, r.correct)
	data, _ := json.Marshal(out) // plain numbers, strings and bools cannot fail to encode
	fmt.Fprintln(w, string(data))
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all): offline-exact, http-open, replay-sla, replay-ops")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", refSeconds, "seconds one run measures; the number of passes scales with it")
		trace   = flag.Int("trace", 0, "1: take the per-layer metrics in a traced run instead of the end-to-end ones")
		passes  = flag.Int("passes", 0, "passes per run (default: the workload's own count, scaled by -seconds)")
		self    = flag.Bool("selfcheck", false, "run the suite twice and compare the two against the bounds")
		tamperF = flag.Bool("tamper", false, "corrupt every result before verifying it; the run must then fail")
	)
	flag.Parse()
	tamperPieces = *tamperF
	if *seconds <= 0 || *passes < 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -passes not negative, and there are no positional arguments")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	env := &runEnv{scale: 1}
	count := func(w *workload) int { return passCount(w, *passes, *seconds) }
	cleanup, err := env.directories()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := 0
	if *self {
		code = selfcheck(selected, *seed, count, env)
	} else {
		for _, w := range selected {
			rep, err := runWorkload(w, *seed, count(w), env, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				rep.correct = false
				code = 1
			}
			if rep.attempted == 0 {
				rep.attempted = 1 // the result object wants at least one
			}
			rep.print(os.Stdout)
		}
	}
	cleanup()
	os.Exit(code)
}

// passCount is the number of passes a run of w measures: the -passes
// override, or the workload's own count scaled by -seconds, at least four.
func passCount(w *workload, override int, seconds float64) int {
	if override > 0 {
		return override
	}
	if n := int(float64(w.passes)*seconds/refSeconds + 0.5); n > 4 {
		return n
	}
	return 4
}

// directories creates the directories the harness writes into: out is
// bench/out, whether the command runs from the repository root or from
// bench/, and keeps the traces; scratch is a temporary directory inside it
// that the returned function removes.
func (env *runEnv) directories() (func(), error) {
	env.out = "out"
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		env.out = filepath.Join("bench", "out")
	}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		return nil, err
	}
	var err error
	if env.scratch, err = os.MkdirTemp(env.out, "run-"); err != nil {
		return nil, err
	}
	return func() { os.RemoveAll(env.scratch) }, nil
}
