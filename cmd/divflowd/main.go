// Command divflowd is the divflow scheduling daemon: it owns a machine
// fleet described by a platform JSON, accepts divisible-job submissions
// over HTTP, and schedules them online with the paper's exact
// max-weighted-flow machinery. The fleet runs partitioned into independent
// scheduling shards — by databank-connectivity components, or -shards N (or
// the platform's "shards" field) for uniform fleets — with submissions
// routed to the eligible shard with the least exact residual work.
//
//	divflowd -platform testdata/platform.json -addr :8080
//
// API (all JSON, exact rationals as strings; errors arrive as a versioned
// envelope {"error":{"code","message",...}}):
//
//	POST /v1/jobs          {"name":"blast","size":"40","weight":"1","databanks":["swissprot"]}
//	                       optional "deadline","tenant","slaClass"; or {"jobs":[...]} batch
//	GET  /v1/jobs/{id}     job state, completion, flow / weighted flow / stretch
//	GET  /v1/schedule      executed Gantt so far (?since=<rat> to window)
//	GET  /v1/stats         solve/batch/cache counters and flow metrics
//	GET  /v1/tenants       per-tenant weighted-flow accounting (submitted/shed/backlog/p95)
//	POST /v1/platform      admin: live re-shard against an updated platform JSON
//	GET  /healthz          200 healthy / 503 naming the stalled shards
//	GET  /metrics          Prometheus text exposition (-metrics=false removes it)
//	GET  /v1/events        structured scheduling-event journal (?since=&type=&shard=)
//
// Jobs may carry an absolute deadline: the routed shard runs the paper's
// exact feasibility test against its residual workload and returns an
// admission certificate — accept, reject, or a best-achievable
// counter-offer deadline. -admission selects strict (infeasible submits
// rejected), advisory (certificate returned, job admitted anyway), or off.
// -tenants names a JSON file of per-tenant weights; tenants exceeding
// their weighted share of the fleet backlog are shed with
// tenant_over_quota (premium-class jobs are exempt).
//
// -events-log mirrors every journaled event to an NDJSON file, and
// -debug-addr serves net/http/pprof on a second, operator-only listener.
//
// The platform is live: a replication event that changes databank placement
// is applied at runtime either by POSTing the updated platform JSON to
// /v1/platform or by rewriting the -platform file and sending SIGHUP — the
// service recomputes the databank-connectivity partition and migrates
// affected jobs (exact remaining fractions, stable IDs) onto the new shard
// topology. -reshard=false pins the startup partition for the process's
// whole life.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"math/big"

	"divflow/internal/model"
	"divflow/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("divflowd: ")
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		platform = flag.String("platform", "", "platform JSON describing the machine fleet (required)")
		policy   = flag.String("policy", server.DefaultPolicy,
			fmt.Sprintf("scheduling policy: %s", strings.Join(server.Policies(), ", ")))
		retention = flag.String("retention", "",
			"drop executed history older than this many seconds (exact rational, e.g. 3600); empty keeps everything")
		shards = flag.Int("shards", 0,
			"number of scheduling shards (round-robin over the fleet); 0 partitions by databank-connectivity components (or the platform's \"shards\" field)")
		steal = flag.Bool("steal", true,
			"cross-shard work stealing: an idle shard migrates queued or live jobs (exact remaining fractions, original IDs and flow origins) from the largest-backlog shard; false pins jobs to the shard they were routed to")
		reshard = flag.Bool("reshard", true,
			"live re-sharding: POST /v1/platform (or rewrite the -platform file and send SIGHUP) repartitions the running fleet when databank placement changes; false pins the startup partition")
		metrics = flag.Bool("metrics", true,
			"telemetry: GET /metrics (Prometheus text) and GET /v1/events (scheduling-event journal); false removes both and every telemetry cost from the scheduling paths")
		eventsLog = flag.String("events-log", "",
			"append every journaled scheduling event to this NDJSON file (requires -metrics)")
		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof on this address (operator-only; empty disables profiling)")
		walDir = flag.String("wal-dir", "",
			"durable crash recovery: append every state change to a write-ahead log in this directory and restore from it at startup; empty runs in-memory only")
		fsync = flag.Bool("fsync", false,
			"sync the write-ahead log after every append (requires -wal-dir); off, tail durability is bounded by the OS page cache")
		snapshotEvery = flag.Int("snapshot-every", 0,
			"write a fleet snapshot (and truncate the log behind it) every N WAL appends; 0 selects the default (1024)")
		admission = flag.String("admission", server.AdmissionStrict,
			"deadline admission control: strict rejects submissions whose deadline is infeasible against the routed shard's residual workload (with an exact counter-offer), advisory admits them but returns the certificate, off skips the feasibility solve entirely")
		tenants = flag.String("tenants", "",
			"multi-tenant weighted fairness: JSON file {\"tenants\":[{\"name\":\"acme\",\"weight\":\"3\"}]} of per-tenant weights; tenants over their weighted share of the fleet backlog are shed with tenant_over_quota (empty disables quota enforcement; unlisted tenants weigh 1)")
	)
	flag.Parse()
	if *platform == "" {
		flag.Usage()
		log.Fatal("missing -platform")
	}
	data, err := os.ReadFile(*platform)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := model.ParsePlatformConfig(data)
	if err != nil {
		log.Fatal(err)
	}
	machines := plat.Machines
	if *shards < 0 {
		log.Fatalf("bad -shards %d: want >= 0", *shards)
	}
	cfg := server.Config{Machines: machines, Policy: *policy, Shards: plat.Shards,
		DisableSteal: !*steal, DisableReshard: !*reshard, DisableObs: !*metrics,
		WALDir: *walDir, Fsync: *fsync, SnapshotEvery: *snapshotEvery,
		Admission: *admission}
	if *tenants != "" {
		data, err := os.ReadFile(*tenants)
		if err != nil {
			log.Fatal(err)
		}
		tc, err := model.ParseTenantConfig(data)
		if err != nil {
			log.Fatalf("bad -tenants file %s: %v", *tenants, err)
		}
		cfg.Tenants = tc
	}
	if *walDir == "" && (*fsync || *snapshotEvery > 0) {
		log.Fatal("-fsync and -snapshot-every need -wal-dir")
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *eventsLog != "" {
		if !*metrics {
			log.Fatal("-events-log needs -metrics (the journal is disabled)")
		}
		f, err := os.OpenFile(*eventsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.EventSink = f
	}
	if *retention != "" {
		r, ok := new(big.Rat).SetString(*retention)
		if !ok || r.Sign() <= 0 {
			log.Fatalf("bad -retention %q: want a positive rational", *retention)
		}
		cfg.Retention = r
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *walDir != "" {
		if replayed := srv.ReplayedRecords(); replayed > 0 || srv.RestoredNow().Sign() > 0 {
			log.Printf("restored durable state from %s: %d WAL records replayed, resuming at virtual time %s",
				*walDir, replayed, srv.RestoredNow().RatString())
		}
	}
	srv.Start()
	defer srv.Close()

	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux; serving that mux on a
		// separate listener keeps the profiling surface off the service
		// address, so exposing the API never exposes the profiler. Listened
		// on here, as the API is below, so the log line carries the bound
		// address even for -debug-addr :0.
		if dbgLis, err := net.Listen("tcp", *debugAddr); err != nil {
			log.Printf("debug listener: %v", err)
		} else {
			log.Printf("pprof on %s/debug/pprof/", dbgLis.Addr())
			// Same slowloris bounds as the API listener: operator-only does
			// not mean unreachable, and a handful of stuck header reads would
			// pin goroutines for the life of the process.
			dbg := &http.Server{ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
			go func() {
				if err := dbg.Serve(dbgLis); err != nil {
					log.Printf("debug listener: %v", err)
				}
			}()
		}
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A client that dribbles its header bytes (or parks an idle
		// keep-alive connection forever) must not hold a goroutine and an fd
		// open indefinitely. Body reads stay untimed: submissions are capped
		// by MaxBytesReader, but a platform upload on a slow link can be
		// legitimately large.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Registered here, not in the goroutine: a signal that lands before the
	// goroutine is first scheduled must not find the default action in place.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	// SIGHUP reloads the platform file and live-reshards against it: the
	// operator's replication event needs only a file rewrite and a signal,
	// no client tooling. The handler is installed even under -reshard=false,
	// where Reshard answers ErrReshardDisabled and the HUP is logged as
	// rejected: left unhandled, SIGHUP's default action would exit the
	// process without a final snapshot.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			data, err := os.ReadFile(*platform)
			if err != nil {
				log.Printf("SIGHUP reload: %v", err)
				continue
			}
			plat, err := model.ParsePlatformConfig(data)
			if err != nil {
				log.Printf("SIGHUP reload: %v", err)
				continue
			}
			// The -shards CLI override outranks the file at startup; a
			// reload must apply the same precedence, or an unchanged
			// file would repartition the fleet to the file's (absent)
			// shard count instead of being the no-op it looks like.
			if *shards > 0 {
				plat.Shards = *shards
			}
			resp, err := srv.Reshard(plat)
			switch {
			case err != nil:
				log.Printf("SIGHUP reshard rejected: %v", err)
			case resp.Noop:
				log.Printf("SIGHUP reshard: platform unchanged, partition kept (%d shards, generation %d)",
					resp.ShardCount, resp.Generation)
			default:
				log.Printf("SIGHUP reshard: generation %d, %d shards (%d spawned, %d retired, %d kept), %d jobs migrated",
					resp.Generation, resp.ShardCount, len(resp.SpawnedShards), len(resp.RetiredShards),
					len(resp.KeptShards), resp.MigratedJobs)
			}
		}
	}()
	// Listen explicitly (rather than ListenAndServe) so the log line carries
	// the bound address even for -addr :0 — scripted deployments and the
	// end-to-end tests learn the port from it.
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d machines in %d shards on %s (policy %s)", len(machines), srv.ShardCount(), lis.Addr(), *policy)
	if err := httpSrv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Serve returns the moment Shutdown closes the listener, while Shutdown
	// is still waiting for the in-flight handlers: hold the deferred
	// srv.Close() and the process exit back until they have been answered.
	<-drained
}
