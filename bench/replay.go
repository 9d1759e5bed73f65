package main

import (
	"fmt"

	"divflow/internal/server"
)

// replay drives one virtual-clock replay of a job stream against a started
// server: the clock is advanced to each job's release, the job submitted,
// and the clock held until the shard loops have admitted it — one arrival
// batch per job, so with a single shard every count repeats exactly.
type replay struct {
	srv    *server.Server
	vc     *replayClock
	submit func(*streamJob) (int, outcome, error)
	// settle makes every submit wait until the single shard has caught up
	// with the clock, which makes the replay's counts repeat exactly.
	settle bool
	// span names the timed request ("server.submit", "api.submit", …).
	span string
	// after, when set, runs after job k was admitted (replay-ops issues its
	// reads and reshards from it).
	after func(k int) error

	accepted map[int]jobFacts
	order    []int // accepted IDs in submission order
}

func (r *replay) run(jobs []streamJob, res *passResult, rec *spanRecorder) error {
	r.accepted = make(map[int]jobFacts, len(jobs))
	for k := range jobs {
		j := &jobs[k]
		r.vc.Advance(j.release)
		if r.settle {
			wait := now()
			if err := waitCaughtUp(r.srv, r.vc, j.release, len(r.accepted)); err != nil {
				return err
			}
			rec.add("server.catch_up", k, -1, wait, now())
		}
		res.attempted++
		start := now()
		id, out, err := r.submit(j)
		req := res.request(rec, r.span, k, start)
		switch out {
		case accepted:
			r.accepted[id] = jobFacts{size: j.size, weight: j.weight, databanks: j.req.Databanks}
			r.order = append(r.order, id)
			if rec != nil {
				res.acceptedIdx = append(res.acceptedIdx, k)
			}
			wait := now()
			if err := waitAdmitted(r.srv, len(r.accepted)); err != nil {
				return err
			}
			rec.add("server.plan_wait", k, req, wait, now())
		case rejectedDeadline:
			res.counts["rejected_deadline"]++
		case shedTenant:
			res.counts["shed_tenant"]++
		default:
			res.failed++
			if res.failed > len(jobs)/100 {
				return fmt.Errorf("job %d: %w (more than 1%% of submissions failed)", k, err)
			}
		}
		if r.after != nil {
			if err := r.after(k); err != nil {
				return err
			}
		}
	}
	res.counts["accepted"] = int64(len(r.accepted))
	return nil
}
