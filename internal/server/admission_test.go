package server

import (
	"fmt"
	"math/big"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"divflow/internal/core"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/shardlink"
)

// TestDeadlineCounterOfferResubmit is the admission-control acceptance test:
// an infeasible deadline is rejected with an exact counter-offer, and a
// resubmission at exactly that counter-offer is accepted AND met in the
// executed trace. Admission runs in the divisible model the policy executes
// in, so on testFleet (fast speed 2, slow speed 1) a size-9 job spread over
// both machines can be promised at 9/3 = 3 and no earlier.
func TestDeadlineCounterOfferResubmit(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Infeasible: 9 units of work need 3 on the whole fleet.
	status, _, env := apiCall(t, ts, "POST", "/v1/jobs",
		`{"size":"9","weight":"3","deadline":"1","databanks":["swissprot"]}`)
	if status != 422 || env.Error.Code != model.ErrCodeDeadlineInfeasible {
		t.Fatalf("infeasible submit = %d %q, want 422 deadline_infeasible", status, env.Error.Code)
	}
	cert := env.Error.Admission
	if cert == nil || cert.Feasible {
		t.Fatalf("reject certificate = %+v, want an infeasible certificate", cert)
	}
	if cert.CounterOffer != "3" {
		t.Fatalf("counter-offer = %q, want the exact bound 3 (= 9 work / fleet speed 2+1)", cert.CounterOffer)
	}

	// Resubmit at exactly the counter-offer: accepted, with a feasible cert.
	resp1 := postJob(t, ts.URL, model.SubmitRequest{
		Size: "9", Weight: "3", Deadline: cert.CounterOffer, Databanks: []string{"swissprot"}})
	if resp1.Admission == nil || !resp1.Admission.Feasible || resp1.Admission.Deadline != "3" {
		t.Fatalf("accept certificate = %+v, want feasible at 3", resp1.Admission)
	}

	// A second deadline job must be checked against the residual workload
	// *including job 1's commitment*: the whole fleet is pledged to job 1
	// through 3, so 9 more units cannot be promised before 3 + 3 = 6.
	status, _, env = apiCall(t, ts, "POST", "/v1/jobs",
		`{"size":"9","weight":"1","deadline":"9/2","databanks":["swissprot"]}`)
	if status != 422 || env.Error.Code != model.ErrCodeDeadlineInfeasible {
		t.Fatalf("second submit = %d %q, want 422 deadline_infeasible", status, env.Error.Code)
	}
	if env.Error.Admission == nil || env.Error.Admission.CounterOffer != "6" {
		t.Fatalf("residual-aware counter-offer = %+v, want 6", env.Error.Admission)
	}
	// Resubmitted at 9, not at the counter-offer: the policy executes
	// deadline-blind (ROADMAP's first item) and, with these weights, takes
	// the optimum that finishes job 2 at 9 although 6 was achievable.
	resp2 := postJob(t, ts.URL, model.SubmitRequest{
		Size: "9", Weight: "1", Deadline: "9", Databanks: []string{"swissprot"}})
	if resp2.Admission == nil || !resp2.Admission.Feasible {
		t.Fatalf("second accept certificate = %+v, want feasible", resp2.Admission)
	}

	// Execute: the max-weighted-flow objective equalizes weighted flows
	// (3·3 = 1·9), completing job 1 at 3 and job 2 at 9 — both by their
	// promised deadlines.
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	for _, want := range []struct {
		id               int
		deadline, doneAt string
	}{{resp1.ID, "3", "3"}, {resp2.ID, "9", "9"}} {
		var st model.JobStatus
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, want.id), &st)
		if st.State != StateDone || st.CompletedAt != want.doneAt {
			t.Errorf("job %d = %s @ %s, want done @ %s", want.id, st.State, st.CompletedAt, want.doneAt)
		}
		if st.Deadline != want.deadline || st.DeadlineMet == nil || !*st.DeadlineMet {
			t.Errorf("job %d deadline %q met %v, want %q met", want.id, st.Deadline, st.DeadlineMet, want.deadline)
		}
	}
	validateServer(t, srv)
}

// TestAdmissionModes pins the -admission axis: advisory admits an infeasible
// deadline but reports the same exact certificate, off skips the check (and
// the LP) entirely, and deadline-free traffic never gets a certificate in
// any mode.
func TestAdmissionModes(t *testing.T) {
	for _, mode := range []string{AdmissionStrict, AdmissionAdvisory, AdmissionOff} {
		t.Run(mode, func(t *testing.T) {
			srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock(), Admission: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			plain, err := srv.Submit(&model.SubmitRequest{Size: "1", Databanks: []string{"swissprot"}})
			if err != nil || plain.Admission != nil {
				t.Fatalf("deadline-free submit = %+v, %v; want accepted with no certificate", plain, err)
			}
			resp, err := srv.Submit(&model.SubmitRequest{
				Size: "9", Deadline: "1", Databanks: []string{"swissprot"}})
			switch mode {
			case AdmissionStrict:
				if err == nil || resp.Admission == nil || resp.Admission.Feasible {
					t.Fatalf("strict infeasible submit = %+v, %v; want reject with certificate", resp, err)
				}
			case AdmissionAdvisory:
				if err != nil {
					t.Fatalf("advisory submit rejected: %v", err)
				}
				if resp.Admission == nil || resp.Admission.Feasible ||
					resp.Admission.Mode != AdmissionAdvisory || resp.Admission.CounterOffer == "" {
					t.Fatalf("advisory certificate = %+v, want infeasible with counter-offer", resp.Admission)
				}
			case AdmissionOff:
				if err != nil || resp.Admission != nil {
					t.Fatalf("admission=off submit = %+v, %v; want accepted with no certificate", resp, err)
				}
			}
		})
	}
	if _, err := New(Config{Machines: testFleet(), Admission: "bogus"}); err == nil {
		t.Error("unknown admission mode accepted")
	}
}

// TestTenantFlashCrowdIsolation is the weighted-fairness acceptance test: a
// noisy tenant flooding the fleet is shed with tenant_over_quota while the
// quiet tenant keeps its full weighted share — its submissions all land and
// its weighted-flow tail stays below the noisy tenant's. Premium traffic is
// quota-exempt even for the noisy tenant.
func TestTenantFlashCrowdIsolation(t *testing.T) {
	tc, err := model.ParseTenantConfig([]byte(`{"tenants":[
		{"name":"noisy","weight":"1"},{"name":"quiet","weight":"3"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Policy: "srpt", Tenants: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(body string) (int, model.ErrorResponse) {
		st, hdr, env := apiCall(t, ts, "POST", "/v1/jobs", body)
		if st == 429 && hdr.Get("Retry-After") == "" {
			t.Error("tenant_over_quota reject carries no Retry-After header")
		}
		return st, env
	}

	// The flood: noisy lands its first burst (a lone tenant is never shed),
	// then every further submission exceeds its 1/4 weight share of the
	// fleet backlog while quiet keeps landing within its 3/4 share.
	noisyAccepted, noisyShed := 0, 0
	if st, _ := submit(`{"size":"5","tenant":"noisy","databanks":["swissprot"]}`); st != 202 {
		t.Fatalf("noisy's first submit = %d, want 202 (lone active tenant)", st)
	}
	noisyAccepted++
	for round := 0; round < 5; round++ {
		if st, _ := submit(`{"size":"1","tenant":"quiet","databanks":["swissprot"]}`); st != 202 {
			t.Fatalf("quiet round %d = %d, want 202 (within weighted share)", round, st)
		}
		st, env := submit(`{"size":"5","tenant":"noisy","databanks":["swissprot"]}`)
		switch st {
		case 202:
			noisyAccepted++
		case 429:
			if env.Error.Code != model.ErrCodeTenantOverQuota {
				t.Fatalf("shed code = %q, want tenant_over_quota", env.Error.Code)
			}
			noisyShed++
		default:
			t.Fatalf("noisy flood submit = %d, want 202 or 429", st)
		}
	}
	if noisyShed == 0 {
		t.Fatal("flooding tenant was never shed")
	}
	// Premium rides through the flood untouched by quota.
	if st, _ := submit(`{"size":"2","tenant":"noisy","slaClass":"premium","databanks":["swissprot"]}`); st != 202 {
		t.Fatalf("premium submit during flood = %d, want 202 (quota-exempt)", st)
	}
	noisyAccepted++

	srv.Start()
	total := noisyAccepted + 5
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == total })

	var tenants model.TenantsResponse
	getJSON(t, ts.URL+"/v1/tenants", &tenants)
	rows := map[string]model.TenantStats{}
	for _, row := range tenants.Tenants {
		rows[row.Tenant] = row
	}
	noisy, quiet := rows["noisy"], rows["quiet"]
	if noisy.Weight != "1" || quiet.Weight != "3" {
		t.Errorf("weights = %q/%q, want 1/3", noisy.Weight, quiet.Weight)
	}
	if noisy.Shed != noisyShed || noisy.Submitted != noisyAccepted || noisy.Completed != noisyAccepted {
		t.Errorf("noisy row = %+v, want submitted=completed=%d shed=%d", noisy, noisyAccepted, noisyShed)
	}
	if quiet.Shed != 0 || quiet.Submitted != 5 || quiet.Completed != 5 {
		t.Errorf("quiet row = %+v, want submitted=completed=5 shed=0", quiet)
	}
	if noisy.Backlog != "0" || quiet.Backlog != "0" {
		t.Errorf("final backlogs = %q/%q, want 0/0", noisy.Backlog, quiet.Backlog)
	}
	if noisy.ByClass[model.SLAPremium] != 1 || noisy.ByClass[model.SLAStandard] != noisyAccepted-1 {
		t.Errorf("noisy byClass = %v, want 1 premium, %d standard", noisy.ByClass, noisyAccepted-1)
	}
	// Isolation: the quiet tenant's weighted-flow tail stays below the
	// flooding tenant's (its small jobs finish ahead of the flood's backlog).
	if quiet.P95WeightedFlow <= 0 || noisy.P95WeightedFlow <= 0 {
		t.Fatalf("p95 weighted flows = %v/%v, want both positive", quiet.P95WeightedFlow, noisy.P95WeightedFlow)
	}
	if quiet.P95WeightedFlow >= noisy.P95WeightedFlow {
		t.Errorf("quiet p95 weighted flow %v not below noisy %v — no isolation",
			quiet.P95WeightedFlow, noisy.P95WeightedFlow)
	}
	validateServer(t, srv)
}

// TestAdmissionCertificatesOverRPC runs the strict admission flow with every
// router↔shard message crossing a loopback net/rpc+gob connection — the
// Submit message the in-process transport hands over directly — and requires
// bit-identical certificates to the in-process transport.
func TestAdmissionCertificatesOverRPC(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Shards: 1,
		Transport: shardlink.TransportRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := srv.Submit(&model.SubmitRequest{
		Size: "9", Deadline: "1", Databanks: []string{"swissprot"}})
	if err == nil {
		t.Fatal("infeasible deadline accepted over RPC")
	}
	if resp.Admission == nil || resp.Admission.Feasible || resp.Admission.CounterOffer != "3" {
		t.Fatalf("RPC reject certificate = %+v, want infeasible with counter-offer 3", resp.Admission)
	}

	// Resubmission at the counter-offer is accepted and met, with the whole
	// exchange serialized through gob.
	acc, err := srv.Submit(&model.SubmitRequest{
		Size: "9", Deadline: "3", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Admission == nil || !acc.Admission.Feasible {
		t.Fatalf("RPC accept certificate = %+v, want feasible", acc.Admission)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	st, _ := srv.jobStatus(acc.ID)
	if st.CompletedAt != "3" || st.DeadlineMet == nil || !*st.DeadlineMet {
		t.Errorf("job over RPC = done @ %s met %v, want @ 3 met", st.CompletedAt, st.DeadlineMet)
	}
}

// TestAdmissionMatchesParentOracle holds the census-built admission check to
// the construction it replaced (parentAdmission) over random shard states:
// admitted jobs part-executed, stolen jobs arriving with a fraction left and a
// deadline that fraction decides (some admitted, some still queued), fresh
// submissions queued behind them, and a
// candidate whose deadline may or may not be met — in both execution models a
// shard admits in. The two instances list their rows in different orders (the
// census puts queued jobs first); verdicts, counter-offers and counts must
// agree regardless.
func TestAdmissionMatchesParentOracle(t *testing.T) {
	feasible, countered := 0, 0
	for _, policy := range []string{"online-mwf-lazy", "online-mwf-preempt"} {
		for seed := int64(0); seed < 48; seed++ {
			switch cert := admissionOracleCase(t, policy, seed); {
			case cert.Feasible:
				feasible++
			case cert.CounterOffer != "":
				countered++
			}
		}
	}
	if feasible == 0 || countered == 0 {
		t.Errorf("%d feasible and %d countered cases: the seeds must cover both", feasible, countered)
	}
}

// admissionOracleCase builds one random shard state, runs both checks on the
// same caught-up state and compares them; it returns the census-built
// certificate.
func admissionOracleCase(t *testing.T, policy string, seed int64) model.AdmissionCertificate {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := func(lo, hi int64) *big.Rat { return big.NewRat(lo+rng.Int63n(hi-lo+1), 1+rng.Int63n(3)) }
	machines := bankedMachines(q)
	vc := NewVirtualClock()
	// Admission off: the fixture's own submissions take no certificate; the
	// checks under test are called directly below.
	sh, err := buildShard(nil, &shardlink.InstallArgs{
		ShardSpec: shardlink.ShardSpec{Stride: 1, Machines: machines, MachineIdx: []int{0, 1, 2}},
		Policy:    policy, Admission: AdmissionOff,
	}, vc, nil)
	if err != nil {
		t.Fatal(err)
	}
	banks := [][]string{{"a"}, {"b"}, {"a", "b"}, nil}
	job := func() model.Job {
		j := model.Job{Size: q(1, 12), Weight: q(1, 4), Databanks: banks[rng.Intn(len(banks))]}
		if rng.Intn(2) == 0 {
			j.Deadline = new(big.Rat).Add(vc.Now(), q(30, 90))
		}
		return j
	}
	submit := func(n int) {
		for ; n > 0; n-- {
			if _, _, err := sh.submit(job()); err != nil {
				t.Fatal(err)
			}
		}
	}
	locked := func(f func()) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		f()
	}
	advance := func() { vc.Advance(new(big.Rat).Add(vc.Now(), q(1, 3))) }

	submit(1 + rng.Intn(3))
	locked(sh.process)
	advance()
	locked(sh.process)
	for k := 1 + rng.Intn(2); k > 0; k-- {
		stolen := job()
		stolen.Release = new(big.Rat)
		stolen.Deadline = new(big.Rat).Add(vc.Now(), q(2, 12))
		locked(func() {
			sh.adoptRecord(&shardlink.MigratedJob{GID: 1000 + k, Remaining: exact.New(1+rng.Int63n(3), 4), Job: shardlink.JobOf(stolen)})
		})
	}
	if rng.Intn(2) == 0 {
		locked(sh.process)
	}
	submit(rng.Intn(3))
	advance() // the check's own catch-up has work to do

	cand := job()
	cand.Deadline = new(big.Rat).Add(vc.Now(), q(1, 12))
	now := vc.Now()
	cand.Release = now
	sh.mu.Lock()
	defer sh.mu.Unlock()
	got, err := sh.admissionCheck(shardlink.JobOf(cand))
	if err != nil {
		t.Fatalf("%s seed %d: %v", policy, seed, err)
	}
	if want := parentAdmission(t, sh, cand, now); *got != want {
		t.Errorf("%s seed %d: census-built check %+v, parent construction %+v", policy, seed, *got, want)
	}
	return *got
}

// bankedMachines is the admission tests' three-machine fleet over databanks
// a and b: m0 hosts both, m1 only a, m2 only b; q draws the inverse speeds.
func bankedMachines(q func(lo, hi int64) *big.Rat) []model.Machine {
	return []model.Machine{
		{Name: "m0", InverseSpeed: q(1, 2), Databanks: []string{"a", "b"}},
		{Name: "m1", InverseSpeed: q(1, 3), Databanks: []string{"a"}},
		{Name: "m2", InverseSpeed: q(1, 2), Databanks: []string{"b"}},
	}
}

// TestPlanAdmissionMatchesLP drives seeded streams of deadline and
// deadline-free jobs through a started single-shard strict server and, at
// every deadline submission, holds the certificate the shard returns to the
// LP-built parentAdmission oracle on the same caught-up state, counting which
// path answered (planAdmits). Under the lazy divisible policy the plan the
// shard follows must answer most feasible verdicts, and the streams must also
// reach both LP fallbacks of a caught-up shard: a plan that already misses a
// held deadline, and a candidate that does not fit in the plan's idle time.
// The preemptive model never takes the plan path, not even with a plan cache
// forced on: a preemptive job cannot run on two machines at once, so idle time
// on several machines is no witness.
func TestPlanAdmissionMatchesLP(t *testing.T) {
	for _, tc := range []struct {
		policy string
		lazy   bool // force the plan cache on
	}{{"online-mwf-lazy", false}, {"online-mwf-preempt", false}, {"online-mwf-preempt", true}} {
		t.Run(fmt.Sprintf("%s/lazy=%v", tc.policy, tc.lazy), func(t *testing.T) {
			verdicts, feasible := map[planVerdict]int{}, 0
			for seed := int64(1); seed <= 4; seed++ {
				feasible += planAdmissionStream(t, tc.policy, tc.lazy, seed, verdicts)
			}
			t.Logf("%d feasible; plan answered %d, unavailable %d, held deadline missed %d, no room %d", feasible,
				verdicts[planAnswers], verdicts[planUnavailable], verdicts[planMissesHeld], verdicts[planNoRoom])
			if tc.policy == "online-mwf-preempt" {
				if verdicts[planAnswers] != 0 {
					t.Errorf("the plan answered %d preemptive admissions", verdicts[planAnswers])
				}
				return
			}
			if 2*verdicts[planAnswers] <= feasible {
				t.Errorf("the plan answered %d of %d feasible admissions, want most", verdicts[planAnswers], feasible)
			}
			if verdicts[planMissesHeld] == 0 || verdicts[planNoRoom] == 0 {
				t.Errorf("LP fallbacks: %d for a missed held deadline, %d for no room; the streams must reach both",
					verdicts[planMissesHeld], verdicts[planNoRoom])
			}
		})
	}
}

// planAdmissionStream runs one seeded stream for TestPlanAdmissionMatchesLP,
// adds to verdicts how often the plan path answered each way, and returns how
// many admissions were feasible.
func planAdmissionStream(t *testing.T, policy string, lazy bool, seed int64, verdicts map[planVerdict]int) (feasible int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := func(lo, hi int64) *big.Rat { return big.NewRat(lo+rng.Int63n(hi-lo+1), 1+rng.Int63n(3)) }
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: bankedMachines(q), Clock: vc, Shards: 1, Policy: policy, Admission: AdmissionStrict})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh := srv.active()[0]
	sh.mwf.LazyResolve = sh.mwf.LazyResolve || lazy
	srv.Start()
	// settle waits for the loop to admit what was submitted, as a replayed
	// stream does: the plan covers no queued job.
	settle := func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			sh.mu.Lock()
			queued := len(sh.pending)
			sh.mu.Unlock()
			if queued == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the shard did not admit its queue in 30s")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	banks := [][]string{{"a"}, {"b"}, {"a", "b"}, nil}
	for n := 0; n < 160; n++ {
		vc.Advance(new(big.Rat).Add(vc.Now(), big.NewRat(rng.Int63n(8), 2)))
		settle()
		job := model.Job{Size: q(1, 12), Weight: q(1, 4), Databanks: banks[rng.Intn(len(banks))]}
		req := model.SubmitRequest{Size: job.Size.RatString(), Weight: job.Weight.RatString(), Databanks: job.Databanks}
		var want model.AdmissionCertificate
		if rng.Intn(4) != 0 {
			now := vc.Now()
			job.Release, job.Deadline = now, new(big.Rat).Add(now, q(1, 12))
			req.Deadline = job.Deadline.RatString()
			sh.mu.Lock()
			if _, ok := sh.catchUp(); !ok {
				t.Fatalf("shard latched: %v", sh.lastErr)
			}
			verdict := sh.planAdmits(sh.eng.Snapshot(), shardlink.JobOf(job))
			want = parentAdmission(t, sh, job, now)
			sh.mu.Unlock()
			verdicts[verdict]++
			if want.Feasible {
				feasible++
			}
			if verdict == planAnswers && !want.Feasible {
				t.Errorf("job %d: the plan answered an admission the LP refuses: %+v", n, want)
			}
		}
		resp, err := srv.Submit(&req)
		switch {
		case req.Deadline == "":
			if err != nil {
				t.Fatalf("job %d: deadline-free submit: %v", n, err)
			}
		case resp.Admission == nil || *resp.Admission != want:
			t.Errorf("job %d: certificate %+v, LP oracle %+v", n, resp.Admission, want)
		case (err == nil) != want.Feasible:
			t.Errorf("job %d: submit error %v for a certificate %+v", n, err, want)
		}
	}
	return feasible
}

// parentAdmission is the admission check as the shard built it before the
// census, kept as the oracle: live jobs in engine order, then pending ones,
// each a clone of its job with the size scaled by the remaining fraction and
// released at now; the candidate appended last; the costs re-derived from
// sh.machines by model.NewInstance, whose stable sort by release keeps the
// candidate last. Callers hold sh.mu with the engine caught up.
func parentAdmission(t *testing.T, sh *shard, job model.Job, now *big.Rat) model.AdmissionCertificate {
	t.Helper()
	var jobs []model.Job
	var deadlines []*big.Rat
	add := func(rec *jobRecord, size, remaining exact.Q) {
		work := size
		if remaining.Sign() != 0 {
			work = work.Mul(remaining)
		}
		if work.Sign() <= 0 {
			return
		}
		j := model.Job{Release: new(big.Rat).Set(now), Weight: rec.Weight.Rat(), Size: work.Rat(), Databanks: rec.Databanks}
		if rec.Deadline.Sign() != 0 {
			j.Deadline = rec.Deadline.Rat()
		}
		jobs = append(jobs, j)
		deadlines = append(deadlines, j.Deadline)
	}
	for _, v := range sh.eng.Snapshot().Jobs {
		add(sh.records.get(v.ID), v.Size, v.Remaining)
	}
	for _, rec := range sh.pending {
		add(rec, rec.Size, rec.Remaining)
	}
	cand := job.Clone()
	cand.Release = new(big.Rat).Set(now)
	jobs = append(jobs, cand)
	deadlines = append(deadlines, cand.Deadline)
	inst, err := model.NewInstance(jobs, sh.machines)
	if err != nil {
		t.Fatal(err)
	}
	cert := model.AdmissionCertificate{Mode: sh.admission, Deadline: job.Deadline.RatString(), ResidualJobs: len(jobs)}
	if cert.Feasible, _, err = core.DeadlineFeasible(inst, deadlines, sh.mwf.Mode); err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible {
		counter, err := core.BestDeadline(inst, deadlines, len(jobs)-1, sh.mwf.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if counter != nil {
			cert.CounterOffer = counter.RatString()
		}
	}
	return cert
}

// tenantBacklogs reads the per-tenant residual work twice over: the
// GET /v1/tenants rows (every shard, retired ones included) and the sum the
// router's quota check sees (RouteInfo over the active shards only). Zero
// entries are dropped from both, so drained fleets compare equal to empty.
func tenantBacklogs(t *testing.T, srv *Server) (rows, quota map[string]string) {
	t.Helper()
	rows, quota = map[string]string{}, map[string]string{}
	for _, row := range srv.TenantStats().Tenants {
		if row.Backlog != "0" {
			rows[row.Tenant] = row.Backlog
		}
	}
	sum := map[string]exact.Q{}
	for _, sh := range srv.active() {
		ri, err := sh.link.RouteInfo(shardlink.RouteInfoArgs{})
		if err != nil {
			t.Fatal(err)
		}
		for tenant, b := range ri.TenantBacklog {
			sum[tenant] = sum[tenant].Add(b)
		}
	}
	for tenant, b := range sum {
		if b.Sign() != 0 {
			quota[tenant] = b.String()
		}
	}
	return rows, quota
}

// TestReshardConservesTenantBacklog is the regression test for the live
// reshard that moved a job's size between shard backlogs but left its tenant's
// share on the retired donor: the router's quota sum (active shards only) lost
// the tenant's work, the destination's completion then subtracted from an
// entry it never had, and a server restored from the WAL — whose replay moved
// both — disagreed with the one that crashed. With tenant work queued and
// half-executed on two shards, a 2→1 reshard must conserve every tenant's
// backlog in both views, a restore from the same WAL must report the same
// numbers, and completing the jobs must bring them back to exactly zero.
func TestReshardConservesTenantBacklog(t *testing.T) {
	tc, err := model.ParseTenantConfig([]byte(`{"tenants":[
		{"name":"gold","weight":"2"},{"name":"silver","weight":"1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// The scenario up to the quiesced post-reshard state: four tenant jobs
	// (premium, so the quota never sheds the fixture itself) spread over both
	// shards by the router, one unit of time executed, then the reshard.
	scenario := func(cfg Config) (*Server, *VirtualClock) {
		vc := NewVirtualClock()
		cfg.Clock = vc
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []struct{ size, tenant string }{
			{"6", "gold"}, {"4", "silver"}, {"2", "gold"}, {"3", "silver"},
		} {
			if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Tenant: spec.tenant,
				SLAClass: model.SLAPremium, Databanks: []string{"shared"}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range srv.active() {
			if ri, _ := sh.link.RouteInfo(shardlink.RouteInfoArgs{}); len(ri.TenantBacklog) == 0 {
				t.Fatalf("shard %d holds no tenant work; the fixture must load both shards", sh.idx)
			}
		}
		srv.Start()
		waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
		vc.Advance(rat(1, 1))
		quiesce(t, srv, rat(1, 1))
		before, beforeQuota := tenantBacklogs(t, srv)
		if before["gold"] != "8" || before["silver"] != "7" {
			t.Fatalf("pre-reshard backlogs = %v, want gold 8, silver 7", before)
		}
		resp, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.RetiredShards) != 2 || resp.MigratedJobs != 4 {
			t.Fatalf("reshard = %+v, want 2 retired shards and 4 migrated jobs", resp)
		}
		quiesce(t, srv, rat(1, 1))
		after, afterQuota := tenantBacklogs(t, srv)
		if !reflect.DeepEqual(after, before) || !reflect.DeepEqual(afterQuota, beforeQuota) {
			t.Fatalf("tenant backlog not conserved across the reshard: rows %v -> %v, quota view %v -> %v",
				before, after, beforeQuota, afterQuota)
		}
		return srv, vc
	}
	drained := func(srv *Server, vc *VirtualClock) {
		t.Helper()
		drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })
		if rows, quota := tenantBacklogs(t, srv); len(rows) != 0 || len(quota) != 0 {
			t.Errorf("tenant backlog after every job completed: rows %v, quota view %v, want none", rows, quota)
		}
	}
	cfg := Config{Machines: uniformFleet(4), Shards: 2, Policy: "srpt", Tenants: tc, DisableSteal: true}

	live, vc := scenario(cfg)
	defer live.Close()
	wantRows, wantQuota := tenantBacklogs(t, live)
	drained(live, vc)

	// The same run, crashed right after the reshard and restored from its WAL.
	cfg.WALDir = t.TempDir()
	scenario(cfg)
	restored, vc2 := reopenServer(t, cfg)
	defer restored.Close()
	if rows, quota := tenantBacklogs(t, restored); !reflect.DeepEqual(rows, wantRows) || !reflect.DeepEqual(quota, wantQuota) {
		t.Errorf("restored tenant backlog: rows %v, quota view %v; the server that crashed had %v, %v",
			rows, quota, wantRows, wantQuota)
	}
	restored.Start()
	drained(restored, vc2)
}
