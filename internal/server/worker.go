package server

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"divflow/internal/shardlink"
)

// Worker mode: the remote half of a distributed divflowd fleet. A worker
// process (divflowd -worker -listen) runs ServeWorker on a TCP listener and
// waits; the router dials it at startup, provisions one shard over
// Worker.Install — identity, fleet slice, policy, and the router's current
// clock reading, so both processes anchor the same virtual timeline — and
// from then on drives the shard entirely through the shardlink message set
// (Shard<idx>.Submit, .ExtractJobs, ...), each call served under the shard's
// own mutex in the worker process. The router keeps a loop-less local stub
// per remote shard (identity and backlog bookkeeping only) and migrates work
// in and out with the two-phase reserve→commit exchange, which never needs a
// lock in both processes at once.

// dialWorker connects a router-side shard stub to the worker process that
// will host its engine: dial, install the shard there — with the message the
// stub itself was built from — and pin the stub's link to the worker's
// per-shard RPC service. The stub's loop never starts (shard.start refuses
// remote shards); the worker's does, inside Install.
func (s *Server) dialWorker(sh *shard, addr string, args *shardlink.InstallArgs) error {
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial worker %s for shard %d: %w", addr, sh.idx, err)
	}
	if err := client.Call("Worker.Install", args, &shardlink.InstallReply{}); err != nil {
		client.Close()
		return fmt.Errorf("install shard %d on worker %s: %w", sh.idx, addr, err)
	}
	sh.remote = true
	sh.link = newLink(s.tel, nil, client, fmt.Sprintf("Shard%d", sh.idx))
	s.rpcConns = append(s.rpcConns, client)
	return nil
}

// workerRPC is the "Worker" RPC service: shard provisioning. The shards it
// installs register on the same rpc.Server as per-shard services, so one
// connection carries both the control call and all subsequent traffic.
type workerRPC struct {
	srv *rpc.Server

	mu     sync.Mutex
	shards map[int]*shard
}

// Install provisions one shard in this worker process and starts its
// scheduling loop. The listener is a network surface: the message goes
// through the constructor, and so the checks, the router's own shards do.
func (w *workerRPC) Install(args *shardlink.InstallArgs, _ *shardlink.InstallReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.shards[args.Idx]; dup {
		return fmt.Errorf("server: worker already hosts shard %d", args.Idx)
	}
	// The worker's wall clock is anchored at the router's reading, so both
	// processes measure the shared virtual timeline from the same epoch
	// (modulo the install round-trip, which only shifts release stamps by
	// real network latency — exactly what a distributed deployment means).
	sh, err := buildShard(nil, args, NewRealClockAt(args.Now.Rat()), nil)
	if err != nil {
		return fmt.Errorf("server: install: %w", err)
	}
	if err := w.srv.RegisterName(fmt.Sprintf("Shard%d", args.Idx), &shardRPC{sh: sh}); err != nil {
		return err
	}
	w.shards[args.Idx] = sh
	sh.start()
	return nil
}

// ServeWorker runs the worker side of a distributed fleet on lis: a bare RPC
// endpoint hosting the "Worker" install service plus one "Shard<idx>"
// service per installed shard. It serves every accepted connection until the
// listener fails (closing the listener is the shutdown path) and only then
// returns. Worker shards run without router-side telemetry or durability;
// their state lives in memory for the life of the process.
func ServeWorker(lis net.Listener) error {
	w := &workerRPC{srv: rpc.NewServer(), shards: make(map[int]*shard)}
	if err := w.srv.RegisterName("Worker", w); err != nil {
		return err
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go w.srv.ServeConn(conn)
	}
}
