package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"os"
	"time"

	"divflow/internal/model"
	"divflow/internal/server"
)

const (
	opsMachines  = 8
	opsShards    = 4
	opsRetention = 200 // virtual seconds of history kept
	// opsReadLag is how many submissions behind the newest the per-submit
	// status read trails: far enough (≈70 virtual seconds) that the job has
	// nearly always completed, near enough that retention has not yet
	// compacted it, so the read traffic doubles as the source of exact flows.
	opsReadLag = 100
)

// opsSpec is the replay-ops stream: deadline-free, unconstrained jobs at
// ρ≈0.6 of the uniform fleet.
func opsSpec(jobs int) streamSpec {
	return streamSpec{jobs: jobs, meanInterarrival: 0.7, sizeDenom: 1}
}

// opsFleet is the uniform fleet of replay-ops: speeds alternate 2 and 3.
func opsFleet() []model.Machine {
	out := uniformFleet(opsMachines)
	for i := range out {
		out[i].InverseSpeed = big.NewRat(1, int64(2+i%2))
	}
	return out
}

// platformDoc encodes the fleet as a POST /v1/platform body with the given
// shard-count override.
func platformDoc(fleet []model.Machine, shards int) ([]byte, error) {
	type machine struct {
		Name         string   `json:"name"`
		InverseSpeed string   `json:"inverseSpeed"`
		Databanks    []string `json:"databanks,omitempty"`
	}
	doc := struct {
		Machines []machine `json:"machines"`
		Shards   int       `json:"shards"`
	}{Shards: shards}
	for i := range fleet {
		doc.Machines = append(doc.Machines, machine{
			Name: fleet[i].Name, InverseSpeed: fleet[i].InverseSpeed.RatString(), Databanks: fleet[i].Databanks,
		})
	}
	return json.Marshal(doc)
}

// opsOptions vary a replay-ops pass for the traced run.
type opsOptions struct {
	noWAL bool
	depth depth // where submissions enter; the reads stay on the socket
}

// replayOpsPass replays the stream over real HTTP against a four-shard,
// durable, history-compacting server, mixing reads with the writes,
// resharding 4→2→4 on the way, and ending with a Close and a restore from
// the same WAL directory — all inside the measured wall.
func replayOpsPass(jobs []streamJob, scratch string, opt opsOptions, rec *spanRecorder) (*passResult, error) {
	cfg := server.Config{
		Machines:  opsFleet(),
		Shards:    opsShards,
		Retention: big.NewRat(opsRetention, 1),
	}
	if !opt.noWAL {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}
	vc := newReplayClock()
	cfg.Clock = vc
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Close()
	hc, stop, err := serveHTTP(srv)
	if err != nil {
		return nil, err
	}
	defer stop()

	res := &passResult{counts: map[string]int64{}}
	r := &replay{srv: srv, vc: vc}
	if opt.depth == depthDefault {
		opt.depth = depthSocket
	}
	r.submit, r.span = submitterAt(srv, hc, opt.depth)
	pending := 0 // next index of r.order the lagged read visits
	var unread []int
	// readJob fetches one job's status; a completed job contributes its
	// exact flow, a live one is queued for another visit unless the read is
	// final. The reads during the stream go over the socket and are timed.
	readJob := func(k, id int, get func(string, any) error, final bool) error {
		var st model.JobStatus
		s := now()
		err := get(fmt.Sprintf("/v1/jobs/%d", id), &st)
		if !final {
			rec.add("api.get_job_socket", k, -1, s, now())
		}
		res.attempted++
		if err != nil {
			return err
		}
		if st.State != server.StateDone && !final {
			unread = append(unread, id)
			return nil
		}
		flow, wf, err := doneFlow(&st, r.accepted[id])
		if err != nil {
			return err
		}
		res.noteStreamFlow(flow, wf)
		return nil
	}
	reshard := func(k, shards int) error {
		doc, err := platformDoc(opsFleet(), shards)
		if err != nil {
			return err
		}
		s := now()
		status, data, err := hc.do(http.MethodPost, "/v1/platform", doc)
		rec.add("server.reshard", k, -1, s, now())
		res.attempted++
		if err != nil {
			return err
		}
		var resp model.ReshardResponse
		if status != http.StatusOK || json.Unmarshal(data, &resp) != nil || resp.ShardCount != shards {
			return fmt.Errorf("reshard to %d shards: status %d: %s", shards, status, data)
		}
		res.counts["reshard_migrated_jobs"] += int64(resp.MigratedJobs)
		return nil
	}
	r.after = func(k int) error {
		if len(r.order)-pending > opsReadLag {
			if err := readJob(k, r.order[pending], hc.getJSON, false); err != nil {
				return err
			}
			pending++
		}
		if len(unread) > 0 {
			// Revisit the oldest job a lagged read found still running,
			// before retention can compact its record away.
			id := unread[0]
			unread = unread[1:]
			if err := readJob(k, id, hc.getJSON, false); err != nil {
				return err
			}
		}
		if k%10 == 9 {
			var st model.StatsResponse
			s := now()
			err := hc.getJSON("/v1/stats", &st)
			rec.add("api.stats_socket", k, -1, s, now())
			res.attempted++
			if err != nil {
				return err
			}
		}
		if k%100 == 99 {
			since := new(big.Rat).Sub(jobs[k].release, big.NewRat(50, 1))
			var sr model.ScheduleResponse
			s := now()
			err := hc.getJSON("/v1/schedule?since="+since.RatString(), &sr)
			rec.add("api.schedule_socket", k, -1, s, now())
			res.attempted++
			if err != nil {
				return err
			}
		}
		switch k + 1 {
		case len(jobs) / 3:
			return reshard(k, opsShards/2)
		case 2 * len(jobs) / 3:
			return reshard(k, opsShards)
		}
		return nil
	}

	from := rec.mark()
	cpu0, t0 := cpuTime(), now()
	if err := r.run(jobs, res, rec); err != nil {
		return nil, err
	}
	dstart := now()
	before, err := drain(srv, vc, big.NewRat(opsRetention/4, 1), len(r.accepted))
	if err != nil {
		return nil, err
	}
	rec.add("server.drain", -1, -1, dstart, now())
	// Traced runs probe the read handlers before the first server goes
	// away; the probe's time and spans are kept out of the pass's.
	var probing time.Duration
	probes := rec.child()
	if rec != nil {
		s := now()
		if res.solveSeconds, err = probeReads(srv, srv.Handler(), r.order[len(r.order)-min(len(r.order), opsReadLag):], probes); err != nil {
			return nil, err
		}
		probing = since(s)
	}
	// Stop the listener and the first server, then restore a second one from
	// the same directory: shutdown snapshot and start-up restore are part of
	// the operation being measured.
	stop()
	s := now()
	srv.Close()
	rec.add("server.close", -1, -1, s, now())
	after := before
	restored := srv
	if !opt.noWAL {
		cfg.Clock = newReplayClock()
		s = now()
		if restored, err = server.New(cfg); err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		defer restored.Close()
		after = restored.Stats()
		rec.add("server.restore", -1, -1, s, now())
	}
	res.wall, res.cpu, res.covered = since(t0)-probing, cpuTime()-cpu0, rec.spanSum(from)
	rec.merge(probes.take())

	res.noteStats(before)
	res.counts["steal_jobs"] = int64(before.StolenJobs)
	res.counts["compacted_jobs"] = int64(before.CompactedJobs)
	if before.WAL != nil {
		res.counts["wal_appends"] = int64(before.WAL.Appends)
	}

	// Verification: everything accepted completed, the restored server
	// reports the same history, it is healthy, and the flows the reads
	// harvested cover every job and agree with the service's own maximum.
	if before.JobsCompleted != len(r.accepted) || res.failed != 0 {
		return nil, fmt.Errorf("%d accepted, %d completed, %d failed operations", len(r.accepted), before.JobsCompleted, res.failed)
	}
	if after.JobsCompleted != before.JobsCompleted || after.MaxWeightedFlow != before.MaxWeightedFlow {
		return nil, fmt.Errorf("restore changed history: %d jobs, max weighted flow %s before; %d, %s after",
			before.JobsCompleted, before.MaxWeightedFlow, after.JobsCompleted, after.MaxWeightedFlow)
	}
	h := restored.Handler()
	var health model.HealthResponse
	if err := recorderGet(h, "/healthz", &health); err != nil || health.Status != "ok" {
		return nil, fmt.Errorf("restored service unhealthy: %v %+v", err, health)
	}
	get := func(path string, v any) error { return recorderGet(h, path, v) }
	late := append(unread, r.order[pending:]...)
	for _, id := range late {
		if err := readJob(-1, id, get, true); err != nil {
			return nil, err
		}
	}
	if tamperPieces {
		res.wflowMax = new(big.Rat).Add(res.wflowMax, big.NewRat(1, 1))
	}
	if res.flowN != len(r.accepted) {
		return nil, fmt.Errorf("verification: read %d completed jobs, accepted %d", res.flowN, len(r.accepted))
	}
	if res.wflowMax.RatString() != before.MaxWeightedFlow {
		return nil, fmt.Errorf("verification: max weighted flow over job reads is %s, /v1/stats says %s",
			res.wflowMax.RatString(), before.MaxWeightedFlow)
	}
	res.endStream()
	return res, nil
}
