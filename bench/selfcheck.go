package main

import (
	"fmt"
	"math"
	"os"
)

// selfcheck runs every selected workload twice with the same seed and
// prints, per metric, both values, how far apart they are as a share of the
// smaller, and the metric's bound. It fails when a pair differs by more than
// its bound in either direction — the noise check a contributor can run
// before the pipeline does.
func selfcheck(selected []*workload, seed int64, passes func(*workload) int, env *runEnv) int {
	code := 0
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "apart", "bound")
	for _, w := range selected {
		var reps [2]*report
		for i := range reps {
			rep, err := runWorkload(w, seed, passes(w), env, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			reps[i] = rep
		}
		for _, d := range endToEnd {
			a, b := reps[0].metrics[d.Name], reps[1].metrics[d.Name]
			apart := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if !(apart <= d.Bound) {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", w.name, d.Name, a, b, 100*apart, 100*d.Bound, verdict)
		}
	}
	return code
}
