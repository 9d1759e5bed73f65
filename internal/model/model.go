// Package model defines the platform and application model of RR-5386
// (Section 3): n divisible jobs with release dates and weights, m unrelated
// machines, and a cost matrix c_{i,j} giving the time machine M_i needs to
// process the whole of job J_j, with c_{i,j} = +∞ when a databank required
// by J_j is absent from M_i.
//
// Two construction paths are provided, mirroring the paper:
//
//   - NewUnrelated: fully unrelated machines, arbitrary cost matrix (the
//     general formulation all theorems are stated for);
//   - the GriPPS special case, "uniform machines with restricted
//     availabilities": c_{i,j} = W_j · c_i if machine M_i hosts every
//     databank J_j depends on, +∞ otherwise. Build it by populating Job and
//     Machine fields and calling NewInstance.
package model

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Job is one divisible request J_j. The JSON tags are the one written form of
// a job: instance documents, the daemon's write-ahead log and snapshots, and
// migration messages all carry exactly these keys (rationals as exact "p/q"
// strings — big.Rat is a TextMarshaler).
type Job struct {
	Name string `json:"name,omitempty"`
	// Release is the release date r_j in seconds. Must be >= 0.
	Release *big.Rat `json:"release"`
	// Weight is the priority w_j used by the max weighted flow objective.
	// Must be > 0. For max-stretch use 1/Size (see WeightsForStretch).
	Weight *big.Rat `json:"weight"`
	// Size is the amount of work W_j (e.g. Mflop) used by the uniform cost
	// model and by the stretch objective. Must be > 0 when the uniform
	// model is used.
	Size *big.Rat `json:"size,omitempty"`
	// Databanks lists the databanks the job needs; the job may only run on
	// machines hosting all of them. Empty means the job runs anywhere.
	Databanks []string `json:"databanks,omitempty"`
	// Deadline is an optional absolute deadline d̄_j (nil means none). The
	// offline solvers take deadlines as an explicit argument; this field is
	// the service-level carrier — admission control checks it, and it rides
	// migrations and the WAL with the job.
	Deadline *big.Rat `json:"deadline,omitempty"`
	// Tenant and SLAClass are service-level accounting labels; the solvers
	// ignore them.
	Tenant   string `json:"tenant,omitempty"`
	SLAClass string `json:"slaClass,omitempty"`
}

// Machine is one compute resource M_i; like Job, its JSON tags are its one
// written form (platform and instance documents, WAL, snapshots).
type Machine struct {
	Name string `json:"name"`
	// InverseSpeed is c_i in seconds per unit of work for the uniform cost
	// model (larger is slower). Must be > 0 when the uniform model is used.
	InverseSpeed *big.Rat `json:"inverseSpeed,omitempty"`
	// Databanks lists the databanks present on the machine.
	Databanks []string `json:"databanks,omitempty"`
}

func cloneRat(r *big.Rat) *big.Rat {
	if r == nil {
		return nil
	}
	return new(big.Rat).Set(r)
}

// Clone returns a deep copy of the job: no rational and no slice is shared.
func (j Job) Clone() Job {
	j.Release, j.Weight, j.Size, j.Deadline = cloneRat(j.Release), cloneRat(j.Weight), cloneRat(j.Size), cloneRat(j.Deadline)
	j.Databanks = append([]string(nil), j.Databanks...)
	return j
}

// Clone returns a deep copy of the machine.
func (m Machine) Clone() Machine {
	m.InverseSpeed = cloneRat(m.InverseSpeed)
	m.Databanks = append([]string(nil), m.Databanks...)
	return m
}

// Hosts reports whether the machine holds every databank in need.
func (m *Machine) Hosts(need []string) bool {
	for _, d := range need {
		found := false
		for _, have := range m.Databanks {
			if have == d {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Instance is a complete scheduling problem instance.
type Instance struct {
	Jobs     []Job
	Machines []Machine
	// cost[i][j] is c_{i,j}; nil encodes +∞ (job j cannot run on machine i).
	cost [][]*big.Rat
}

// NewInstance builds an instance under the uniform-with-restrictions model:
// c_{i,j} = Size_j · InverseSpeed_i when machine i hosts job j's databanks,
// +∞ otherwise. Jobs are sorted by non-decreasing release date, as the paper
// assumes.
func NewInstance(jobs []Job, machines []Machine) (*Instance, error) {
	if err := needReleases(jobs); err != nil {
		return nil, err
	}
	inst := &Instance{Jobs: append([]Job(nil), jobs...), Machines: append([]Machine(nil), machines...)}
	sort.SliceStable(inst.Jobs, func(a, b int) bool {
		return inst.Jobs[a].Release.Cmp(inst.Jobs[b].Release) < 0
	})
	inst.cost = make([][]*big.Rat, len(machines))
	for i := range machines {
		if machines[i].InverseSpeed == nil || machines[i].InverseSpeed.Sign() <= 0 {
			return nil, fmt.Errorf("model: machine %d (%s) needs InverseSpeed > 0", i, machines[i].Name)
		}
		inst.cost[i] = make([]*big.Rat, len(inst.Jobs))
		for j := range inst.Jobs {
			job := &inst.Jobs[j]
			if job.Size == nil || job.Size.Sign() <= 0 {
				return nil, fmt.Errorf("model: job %d (%s) needs Size > 0", j, job.Name)
			}
			if inst.Machines[i].Hosts(job.Databanks) {
				inst.cost[i][j] = new(big.Rat).Mul(job.Size, inst.Machines[i].InverseSpeed)
			}
		}
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// needReleases rejects a job without a release date before the constructors
// sort by it (a decoded document may simply omit the field).
func needReleases(jobs []Job) error {
	for j := range jobs {
		if jobs[j].Release == nil {
			return fmt.Errorf("model: job %d (%s) needs Release >= 0", j, jobs[j].Name)
		}
	}
	return nil
}

// NewUnrelated builds an instance from an explicit cost matrix
// cost[machine][job]; nil entries encode +∞. Jobs are sorted by
// non-decreasing release date and the matrix columns are permuted
// accordingly.
func NewUnrelated(jobs []Job, machines []Machine, cost [][]*big.Rat) (*Instance, error) {
	if len(cost) != len(machines) {
		return nil, fmt.Errorf("model: cost has %d rows, want %d machines", len(cost), len(machines))
	}
	for i := range cost {
		if len(cost[i]) != len(jobs) {
			return nil, fmt.Errorf("model: cost row %d has %d columns, want %d jobs", i, len(cost[i]), len(jobs))
		}
	}
	if err := needReleases(jobs); err != nil {
		return nil, err
	}
	perm := make([]int, len(jobs))
	for j := range perm {
		perm[j] = j
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return jobs[perm[a]].Release.Cmp(jobs[perm[b]].Release) < 0
	})
	inst := &Instance{Machines: append([]Machine(nil), machines...)}
	inst.Jobs = make([]Job, len(jobs))
	for k, j := range perm {
		inst.Jobs[k] = jobs[j].Clone()
	}
	inst.cost = make([][]*big.Rat, len(machines))
	for i := range cost {
		inst.cost[i] = make([]*big.Rat, len(jobs))
		for k, j := range perm {
			if cost[i][j] != nil {
				inst.cost[i][k] = new(big.Rat).Set(cost[i][j])
			}
		}
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// M returns the number of machines.
func (in *Instance) M() int { return len(in.Machines) }

// Cost returns c_{i,j} and whether it is finite.
func (in *Instance) Cost(i, j int) (*big.Rat, bool) {
	c := in.cost[i][j]
	if c == nil {
		return nil, false
	}
	return c, true
}

// CanRun reports whether job j may execute (even partially) on machine i.
func (in *Instance) CanRun(i, j int) bool { return in.cost[i][j] != nil }

// EligibleMachines returns the machines on which job j can run.
func (in *Instance) EligibleMachines(j int) []int {
	var out []int
	for i := range in.Machines {
		if in.cost[i][j] != nil {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks the structural invariants the algorithms rely on: sorted
// non-negative release dates, strictly positive weights, finite costs
// strictly positive, and every job executable on at least one machine.
func (in *Instance) Validate() error {
	if len(in.Jobs) == 0 {
		return errors.New("model: instance has no jobs")
	}
	if len(in.Machines) == 0 {
		return errors.New("model: instance has no machines")
	}
	var prev *big.Rat
	for j := range in.Jobs {
		job := &in.Jobs[j]
		if job.Release == nil || job.Release.Sign() < 0 {
			return fmt.Errorf("model: job %d (%s) needs Release >= 0", j, job.Name)
		}
		if job.Weight == nil || job.Weight.Sign() <= 0 {
			return fmt.Errorf("model: job %d (%s) needs Weight > 0", j, job.Name)
		}
		if prev != nil && job.Release.Cmp(prev) < 0 {
			return fmt.Errorf("model: jobs not sorted by release date at index %d", j)
		}
		prev = job.Release
		runnable := false
		for i := range in.Machines {
			if c := in.cost[i][j]; c != nil {
				if c.Sign() <= 0 {
					return fmt.Errorf("model: cost[%d][%d] must be > 0", i, j)
				}
				runnable = true
			}
		}
		if !runnable {
			return fmt.Errorf("model: job %d (%s) cannot run on any machine", j, job.Name)
		}
	}
	return nil
}

// WeightsForStretch overwrites every job weight with 1/Size, turning the max
// weighted flow objective into max stretch. (The paper's prose says
// "w_j = W_j", which contradicts its own definition F_weighted = w_j·F_j;
// stretch is F_j / W_j, hence w_j = 1/W_j.) It returns the instance for
// chaining.
func (in *Instance) WeightsForStretch() *Instance {
	for j := range in.Jobs {
		if in.Jobs[j].Size == nil || in.Jobs[j].Size.Sign() <= 0 {
			panic(fmt.Sprintf("model: job %d has no Size; cannot derive stretch weight", j))
		}
		in.Jobs[j].Weight = new(big.Rat).Inv(in.Jobs[j].Size)
	}
	return in
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Jobs:     make([]Job, len(in.Jobs)),
		Machines: make([]Machine, len(in.Machines)),
		cost:     make([][]*big.Rat, len(in.cost)),
	}
	for j := range in.Jobs {
		out.Jobs[j] = in.Jobs[j].Clone()
	}
	for i := range in.Machines {
		out.Machines[i] = in.Machines[i].Clone()
	}
	for i := range in.cost {
		out.cost[i] = make([]*big.Rat, len(in.cost[i]))
		for j, c := range in.cost[i] {
			if c != nil {
				out.cost[i][j] = new(big.Rat).Set(c)
			}
		}
	}
	return out
}

// String renders a compact description of the instance.
func (in *Instance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance: %d jobs, %d machines (", in.N(), in.M())
	for i := range in.Machines {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(in.Machines[i].Name)
	}
	b.WriteString(")\n")
	for j := range in.Jobs {
		job := &in.Jobs[j]
		fmt.Fprintf(&b, "  J%d (%s): r=%s w=%s", j, job.Name, job.Release.RatString(), job.Weight.RatString())
		if job.Size != nil {
			fmt.Fprintf(&b, " W=%s", job.Size.RatString())
		}
		if len(job.Databanks) > 0 {
			fmt.Fprintf(&b, " banks=%v", job.Databanks)
		}
		b.WriteString(" cost=[")
		for i := range in.Machines {
			if i > 0 {
				b.WriteString(" ")
			}
			if c, ok := in.Cost(i, j); ok {
				b.WriteString(c.RatString())
			} else {
				b.WriteString("inf")
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}
