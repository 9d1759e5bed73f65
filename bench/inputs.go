package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"

	"divflow/internal/model"
	gen "divflow/internal/workload"
)

// subSeed derives an independent generator seed for one named input stream
// of a run, so neighbouring -seed values share no inputs.
func subSeed(seed int64, stream string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, k)
	return int64(h.Sum64() >> 1)
}

// offlineMix is the composition of one offline-exact pass at scale 1 (about
// a second): count instances of each jobs×machines shape. The preemptive request
// is issued on the two smallest shapes only: at 24×5 one preemptive solve
// costs 0.6 s ± 47% on the reference box, so a handful of them would be a
// fifth of the pass and most of its seed-to-seed variance.
var offlineMix = [...]struct {
	jobs, machines, count int
	preemptive            bool
}{
	{6, 3, 16, true}, {10, 3, 12, true}, {14, 4, 12, false}, {18, 4, 6, false}, {24, 5, 2, false},
}

// offlineInstance is one generated instance and whether the preemptive
// request is issued on it.
type offlineInstance struct {
	inst       *model.Instance
	preemptive bool
}

// offlineInstances generates one pass of offline-exact: the mix scaled by
// scale (at least one instance per shape). Every fifth instance of a shape
// uses the unrelated cost model, and weights are drawn from {1,2,3} so the
// weighted objective differs from plain max flow.
func offlineInstances(seed int64, scale float64) ([]offlineInstance, error) {
	var out []offlineInstance
	for s, shape := range offlineMix {
		count := int(float64(shape.count)*scale + 0.5)
		if count < 1 {
			count = 1
		}
		for k := 0; k < count; k++ {
			cfg := gen.Default()
			cfg.Jobs, cfg.Machines = shape.jobs, shape.machines
			cfg.Seed = subSeed(seed, "offline", s*100000+k)
			cfg.Unrelated = k%5 == 4
			inst, err := gen.Generate(cfg)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(subSeed(seed, "offline-weights", s*100000+k)))
			for j := range inst.Jobs {
				inst.Jobs[j].Weight = big.NewRat(int64(1+rng.Intn(3)), 1)
			}
			out = append(out, offlineInstance{inst: inst, preemptive: shape.preemptive})
		}
	}
	return out, nil
}

// bankedFleet is the fixed four-machine platform of the http-open and
// replay-sla workloads: three databanks, each replicated on two machines,
// chained so the databank-connectivity partition is a single shard. The
// platform is configuration, not input: only the job stream depends on
// -seed.
func bankedFleet() []model.Machine {
	return []model.Machine{
		{Name: "m0", InverseSpeed: big.NewRat(1, 4), Databanks: []string{"bank0"}},
		{Name: "m1", InverseSpeed: big.NewRat(1, 3), Databanks: []string{"bank0", "bank2"}},
		{Name: "m2", InverseSpeed: big.NewRat(1, 3), Databanks: []string{"bank1", "bank2"}},
		{Name: "m3", InverseSpeed: big.NewRat(1, 2), Databanks: []string{"bank1"}},
	}
}

// uniformFleet is n identical-capability machines (alternating speeds 1 and
// 2) with no databank constraints — the shape fixed-count sharding exists
// for.
func uniformFleet(n int) []model.Machine {
	out := make([]model.Machine, n)
	for i := range out {
		out[i] = model.Machine{Name: fmt.Sprintf("u%d", i), InverseSpeed: big.NewRat(1, int64(1+i%2))}
	}
	return out
}

// streamJob is one generated submission: the wire request, its encoded
// body, and the facts verification needs.
type streamJob struct {
	release      *big.Rat // virtual release date (replays)
	due          float64  // seconds after the pass starts (http-open)
	req          model.SubmitRequest
	body         []byte
	size, weight *big.Rat
}

// streamSpec shapes a generated job stream.
type streamSpec struct {
	jobs             int
	meanInterarrival float64 // workload.Config.MeanInterarrival
	databanks        int     // 0: unconstrained jobs
	sizeDenom        int64   // sizes are k/sizeDenom, k in 1..20
	deadlines        bool    // absolute deadline = release + slack·size, slack in [0.5, 3]
	tenants          bool    // tenant mix gold 1/2, silver 1/4, bulk 1/4
}

// slaTenants is the weight share of each tenant of the replay-sla stream;
// gold, the heaviest, sends half the traffic.
var slaTenants = map[string]*big.Rat{
	"gold": big.NewRat(3, 1), "silver": big.NewRat(2, 1), "bulk": big.NewRat(1, 1),
}

// generateStream draws a job stream from internal/workload.Generate and
// dresses it with weights in {1,2,3} and, when asked, deadlines and tenants.
func generateStream(seed int64, spec streamSpec) ([]streamJob, error) {
	cfg := gen.Default()
	cfg.Jobs = spec.jobs
	cfg.Machines = 4
	cfg.Databanks = spec.databanks
	cfg.MeanInterarrival = spec.meanInterarrival
	cfg.Seed = seed
	inst, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "attrs", 0)))
	out := make([]streamJob, len(inst.Jobs))
	for k := range inst.Jobs {
		job := &inst.Jobs[k]
		sj := &out[k]
		sj.release = job.Release
		sj.size = new(big.Rat).Quo(job.Size, big.NewRat(spec.sizeDenom, 1))
		sj.weight = big.NewRat(int64(1+rng.Intn(3)), 1)
		sj.req = model.SubmitRequest{
			Size:      sj.size.RatString(),
			Weight:    sj.weight.RatString(),
			Databanks: job.Databanks,
		}
		if spec.deadlines {
			slack := big.NewRat(int64(10+rng.Intn(51)), 20)
			d := slack.Mul(slack, sj.size)
			sj.req.Deadline = d.Add(d, sj.release).RatString()
		}
		if spec.tenants {
			sj.req.Tenant = [...]string{"gold", "gold", "silver", "bulk"}[rng.Intn(4)]
			if sj.req.Tenant != "bulk" {
				sj.req.SLAClass = model.SLAPremium
			}
		}
		if sj.body, err = json.Marshal(&sj.req); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poissonDues stamps the stream with open-loop due times, in seconds after
// the pass starts: a Poisson process of the given rate conditioned on its
// count, so the last job is due at exactly jobs/rate and the offered rate
// does not vary with the seed. The same instants, to the microsecond, become
// the jobs' virtual release dates, for replaying the stream off the real
// clock.
func poissonDues(seed int64, jobs []streamJob, rate float64) {
	rng := rand.New(rand.NewSource(subSeed(seed, "dues", 0)))
	t := 0.0
	for k := range jobs {
		t += rng.ExpFloat64()
		jobs[k].due = t
	}
	norm := float64(len(jobs)) / rate / t
	for k := range jobs {
		jobs[k].due *= norm
		jobs[k].release = big.NewRat(int64(jobs[k].due*1e6), 1e6)
	}
}
