package main

import (
	"fmt"
)

// refSeconds is the -seconds value the pass counts below were chosen for;
// other values scale the number of passes by seconds/refSeconds.
const refSeconds = 15

// passInput is the generated input of one pass of a workload.
type passInput struct {
	seed      int64
	instances []offlineInstance // offline-exact
	jobs      []streamJob       // stream workloads
}

// runEnv is what a run gives every pass.
type runEnv struct {
	scale   float64 // share of the reference pass size to run: 1, less in the smoke test
	out     string  // bench/out: where traces are kept
	scratch string  // temporary directory under out, for WAL directories
}

// workload is one benchmark workload: how to generate a pass's input, how
// to run a pass, and how to take its per-layer numbers.
type workload struct {
	name, why string
	// passes is the number of passes of a run at refSeconds, each on its own
	// generated input and about a second long (two on the real clock).
	passes int
	// exact marks the workloads whose program-side counts and flows are a
	// function of the input alone; every run repeats its first pass to
	// assert it.
	exact bool
	// minRate, when set, is the jobs per second the median pass must attain,
	// or the run fails: an open-loop workload that falls behind its schedule
	// is not measuring the offered rate.
	minRate float64
	inputs  func(seed int64, env *runEnv) (*passInput, error)
	// prefix returns the first tenth of an input, for the set-up warm-up.
	prefix func(in *passInput) *passInput
	pass   func(in *passInput, env *runEnv, rec *spanRecorder) (*passResult, error)
	trace  func(t *tracer, ins []*passInput) error
}

// scaled is a pass size at the run's scale: n·scale, at least 20 jobs.
func scaled(n int, scale float64) int {
	if m := int(float64(n)*scale + 0.5); m > 20 {
		return m
	}
	return 20
}

// streamPrefix is the first tenth of a stream.
func streamPrefix(in *passInput) *passInput {
	return &passInput{seed: in.seed, jobs: in.jobs[:(len(in.jobs)+9)/10]}
}

var workloads = []*workload{
	{
		name:   "offline-exact",
		passes: 15,
		why:    "the paper's exact solvers called directly, no daemon: a solver gain shows undiluted and a daemon change must not move it",
		exact:  true,
		inputs: func(seed int64, env *runEnv) (*passInput, error) {
			insts, err := offlineInstances(seed, env.scale)
			return &passInput{seed: seed, instances: insts}, err
		},
		prefix: func(in *passInput) *passInput {
			// Every tenth instance: a tenth of the work across all shapes.
			out := &passInput{seed: in.seed}
			for k := 0; k < len(in.instances); k += 10 {
				out.instances = append(out.instances, in.instances[k])
			}
			return out
		},
		pass: func(in *passInput, _ *runEnv, rec *spanRecorder) (*passResult, error) {
			res, outs, err := offlinePass(in.instances, rec)
			if err != nil {
				return nil, err
			}
			if err := verifyOffline(in.instances, outs, rec); err != nil {
				return nil, fmt.Errorf("verification: %w", err)
			}
			return res, nil
		},
		trace: traceOffline,
	},
	{
		name:    "http-open",
		passes:  7,
		minRate: openMinRate,
		why:     "the service as deployed: real clock and listener, open-loop Poisson submits beside status polls; the only one with real timers, sockets and contention",
		inputs: func(seed int64, env *runEnv) (*passInput, error) {
			jobs, err := generateStream(seed, openSpec(scaled(openJobs, env.scale)))
			if err != nil {
				return nil, err
			}
			poissonDues(seed, jobs, openRate)
			return &passInput{seed: seed, jobs: jobs}, nil
		},
		prefix: streamPrefix,
		pass: func(in *passInput, _ *runEnv, rec *spanRecorder) (*passResult, error) {
			return httpOpenPass(in.seed, in.jobs, rec)
		},
		trace: traceOpen,
	},
	{
		name:   "replay-sla",
		passes: 16,
		why:    "virtual-clock replay through Server.Submit near saturation, a deadline and a tenant on every job: admission and residual LPs dominate, transport is zero",
		exact:  true,
		inputs: func(seed int64, env *runEnv) (*passInput, error) {
			jobs, err := generateStream(seed, slaSpec(scaled(slaJobs, env.scale)))
			return &passInput{seed: seed, jobs: jobs}, err
		},
		prefix: streamPrefix,
		pass: func(in *passInput, _ *runEnv, rec *spanRecorder) (*passResult, error) {
			return replaySLAPass(in.jobs, slaOptions{}, rec)
		},
		trace: traceSLA,
	},
	{
		name:   "replay-ops",
		passes: 16,
		why:    "virtual-clock replay over HTTP on four durable shards with reads beside writes, two reshards, compaction and a restore: LPs are small, so WAL, migration and JSON carry the run",
		inputs: func(seed int64, env *runEnv) (*passInput, error) {
			jobs, err := generateStream(seed, opsSpec(scaled(opsJobs, env.scale)))
			return &passInput{seed: seed, jobs: jobs}, err
		},
		prefix: streamPrefix,
		pass: func(in *passInput, env *runEnv, rec *spanRecorder) (*passResult, error) {
			return replayOpsPass(in.jobs, env.scratch, opsOptions{}, rec)
		},
		trace: traceOps,
	},
}

// Jobs per pass at scale 1, sized on the reference box (2 vCPU Xeon @
// 2.1 GHz).
const (
	openJobs = 240  // 2 s at openRate
	slaJobs  = 800  // ≈ 800 jobs/s
	opsJobs  = 1200 // ≈ 1150 jobs/s
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
