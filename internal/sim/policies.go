package sim

import (
	"sort"

	"divflow/internal/exact"
)

// FCFS is the classical first-come-first-served heuristic: jobs start in
// release order on the first free eligible machine and run there to
// completion without preemption or division.
type FCFS struct {
	assigned map[int]int // job -> machine, sticky once started
}

// NewFCFS returns a fresh FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Policy.
func (f *FCFS) Name() string { return "fcfs" }

// Reset implements Policy.
func (f *FCFS) Reset() { f.assigned = make(map[int]int) }

// Assign implements Policy.
func (f *FCFS) Assign(s *Snapshot) Allocation {
	alloc := idleAllocation(s.M)
	busy := make([]bool, s.M)
	present := make(map[int]bool, len(s.Jobs))
	for _, jv := range s.Jobs {
		present[jv.ID] = true
	}
	// Keep running jobs where they started.
	for _, jv := range s.Jobs {
		if i, ok := f.assigned[jv.ID]; ok {
			alloc.MachineJob[i] = jv.ID
			busy[i] = true
		}
	}
	// Drop bookkeeping for completed jobs.
	for j := range f.assigned {
		if !present[j] {
			delete(f.assigned, j)
		}
	}
	// Start waiting jobs in release order on free eligible machines.
	for _, jv := range s.Jobs {
		if _, started := f.assigned[jv.ID]; started {
			continue
		}
		for i := 0; i < s.M; i++ {
			if busy[i] {
				continue
			}
			if _, ok := s.Cost(i, jv.ID); !ok {
				continue
			}
			f.assigned[jv.ID] = i
			alloc.MachineJob[i] = jv.ID
			busy[i] = true
			break
		}
	}
	return alloc
}

// MCT is the Minimum Completion Time list heuristic the paper compares
// against: each job is queued, at its release date, on the machine that
// minimizes its estimated completion time (current backlog plus the job's
// cost there); machines then serve their queues in order, without
// preemption or division.
type MCT struct {
	queue     [][]int // per machine, job IDs in service order
	enqueued  map[int]bool
	completed map[int]bool
}

// NewMCT returns a fresh MCT policy.
func NewMCT() *MCT { return &MCT{} }

// Name implements Policy.
func (p *MCT) Name() string { return "mct" }

// Reset implements Policy.
func (p *MCT) Reset() {
	p.queue = nil
	p.enqueued = make(map[int]bool)
	p.completed = make(map[int]bool)
}

// Assign implements Policy.
func (p *MCT) Assign(s *Snapshot) Allocation {
	if p.queue == nil {
		p.queue = make([][]int, s.M)
	}
	present := make(map[int]*JobState, len(s.Jobs))
	for k := range s.Jobs {
		present[s.Jobs[k].ID] = &s.Jobs[k]
	}
	for j := range p.enqueued {
		if present[j] == nil {
			p.completed[j] = true
		} else if p.completed[j] {
			// A job marked completed has reappeared in the snapshot under
			// the same ID. The engine permits this (AddPartial accepts a
			// removed ID back), and the server's two-phase migration does
			// it when a reserve is aborted and the work handed back to the
			// donor. Forget the stale disposition and treat the job as a
			// fresh release: it will be re-queued greedily below.
			delete(p.completed, j)
			delete(p.enqueued, j)
			for i := range p.queue {
				kept := p.queue[i][:0]
				for _, id := range p.queue[i] {
					if id != j {
						kept = append(kept, id)
					}
				}
				p.queue[i] = kept
			}
		}
	}
	// Queue the newly released jobs greedily by estimated completion time.
	for k := range s.Jobs {
		jv := &s.Jobs[k]
		if p.enqueued[jv.ID] {
			continue
		}
		bestMachine, bestDone := -1, exact.Q{}
		for i := 0; i < s.M; i++ {
			c, ok := s.Cost(i, jv.ID)
			if !ok {
				continue
			}
			// Backlog: remaining work of queued incomplete jobs on i.
			var backlog exact.Q
			for _, q := range p.queue[i] {
				qv := present[q]
				if qv == nil {
					continue
				}
				qc, _ := s.Cost(i, q)
				backlog = backlog.Add(qv.Remaining.Mul(qc))
			}
			doneAt := backlog.Add(c)
			if bestMachine == -1 || doneAt.Cmp(bestDone) < 0 {
				bestMachine, bestDone = i, doneAt
			}
		}
		// Instances validate that every job is eligible somewhere, so a
		// machine is always found.
		p.queue[bestMachine] = append(p.queue[bestMachine], jv.ID)
		p.enqueued[jv.ID] = true
	}
	alloc := idleAllocation(s.M)
	for i := 0; i < s.M; i++ {
		// Serve the first incomplete job of the queue; drop the served
		// prefix of completed jobs.
		q := p.queue[i]
		for len(q) > 0 && p.completed[q[0]] {
			q = q[1:]
		}
		p.queue[i] = q
		if len(q) > 0 {
			alloc.MachineJob[i] = q[0]
		}
	}
	return alloc
}

// SRPT (shortest remaining processing time first) is a preemptive heuristic:
// at every event, jobs are ordered by their remaining work on their fastest
// eligible machine, and greedily assigned (shortest first) to the free
// eligible machine that runs them fastest. Jobs never share machines.
type SRPT struct{}

// NewSRPT returns a fresh SRPT policy.
func NewSRPT() *SRPT { return &SRPT{} }

// Name implements Policy.
func (SRPT) Name() string { return "srpt" }

// Reset implements Policy.
func (SRPT) Reset() {}

// Assign implements Policy.
func (SRPT) Assign(s *Snapshot) Allocation {
	order := make([]int, len(s.Jobs))
	for k := range order {
		order[k] = k
	}
	key := make([]exact.Q, len(s.Jobs))
	for k := range s.Jobs {
		key[k] = remainingWork(s, &s.Jobs[k])
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]].Cmp(key[order[b]]) < 0 })
	return greedyAssign(s, order)
}

// GreedyWeightedFlow is an "most urgent first" preemptive heuristic: jobs
// are ordered by the weighted flow they would accumulate if finished as
// fast as possible from now (w_j · (now − r_j + remaining work)), largest
// first, and greedily assigned to their fastest free machines.
type GreedyWeightedFlow struct{}

// NewGreedyWeightedFlow returns a fresh GreedyWeightedFlow policy.
func NewGreedyWeightedFlow() *GreedyWeightedFlow { return &GreedyWeightedFlow{} }

// Name implements Policy.
func (GreedyWeightedFlow) Name() string { return "greedy-wflow" }

// Reset implements Policy.
func (GreedyWeightedFlow) Reset() {}

// Assign implements Policy.
func (GreedyWeightedFlow) Assign(s *Snapshot) Allocation {
	order := make([]int, len(s.Jobs))
	for k := range order {
		order[k] = k
	}
	key := make([]exact.Q, len(s.Jobs))
	for k := range s.Jobs {
		jv := &s.Jobs[k]
		key[k] = s.Now.Sub(jv.Release).Add(remainingWork(s, jv)).Mul(jv.Weight)
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]].Cmp(key[order[b]]) > 0 })
	return greedyAssign(s, order)
}

// remainingWork returns the job's remaining processing time on its fastest
// eligible machine (zero, unreachable for validated instances, when it has
// none).
func remainingWork(s *Snapshot, jv *JobState) exact.Q {
	var best exact.Q
	found := false
	for i := 0; i < s.M; i++ {
		c, ok := s.Cost(i, jv.ID)
		if !ok {
			continue
		}
		if w := jv.Remaining.Mul(c); !found || w.Cmp(best) < 0 {
			best, found = w, true
		}
	}
	return best
}

// greedyAssign walks the jobs in the given priority order, giving each the
// fastest still-free eligible machine, one machine per job.
func greedyAssign(s *Snapshot, order []int) Allocation {
	alloc := idleAllocation(s.M)
	busy := make([]bool, s.M)
	for _, k := range order {
		jv := &s.Jobs[k]
		best, bestCost := -1, exact.Q{}
		for i := 0; i < s.M; i++ {
			if busy[i] {
				continue
			}
			c, ok := s.Cost(i, jv.ID)
			if !ok {
				continue
			}
			if best == -1 || c.Cmp(bestCost) < 0 {
				best, bestCost = i, c
			}
		}
		if best >= 0 {
			alloc.MachineJob[best] = jv.ID
			busy[best] = true
		}
	}
	return alloc
}

func idleAllocation(m int) Allocation {
	alloc := Allocation{MachineJob: make([]int, m)}
	for i := range alloc.MachineJob {
		alloc.MachineJob[i] = -1
	}
	return alloc
}
