package server

import (
	"errors"
	"net"
	"net/rpc"
	"strings"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/shardlink"
)

// TestWorkerInstallRejectsBadSpec drives a worker's listener the way anything
// that can reach its port may: Install is a network surface, and a message
// the router would never send must come back as an RPC error instead of a
// shard that panics on its first read. A sound message still installs, and
// its index cannot be installed twice.
func TestWorkerInstallRejectsBadSpec(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ServeWorker(lis) }()
	defer func() {
		lis.Close()
		if err := <-served; !errors.Is(err, net.ErrClosed) {
			t.Errorf("ServeWorker returned %v, want the listener's close", err)
		}
	}()
	client, err := rpc.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sound := func() shardlink.InstallArgs {
		return shardlink.InstallArgs{
			ShardSpec: shardlink.ShardSpec{
				Idx: 3, Pos: 1, Stride: 2,
				Machines: []model.Machine{
					{Name: "m0", InverseSpeed: rat(1, 1), Databanks: []string{"bank"}},
					{Name: "m1", InverseSpeed: rat(1, 2), Databanks: []string{"bank"}},
				},
				MachineIdx: []int{1, 3},
			},
			Now: exact.Int(5),
		}
	}
	install := func(args shardlink.InstallArgs) error {
		return client.Call("Worker.Install", &args, &shardlink.InstallReply{})
	}
	for _, tc := range []struct {
		name   string
		damage func(*shardlink.InstallArgs)
		want   string
	}{
		{"machine without a speed", func(a *shardlink.InstallArgs) { a.Machines[1].InverseSpeed = nil }, "machine 1 (m1) needs InverseSpeed > 0"},
		{"machine with a negative speed", func(a *shardlink.InstallArgs) { a.Machines[0].InverseSpeed = rat(-1, 1) }, "machine 0 (m0) needs InverseSpeed > 0"},
		{"machineIdx shorter than machines", func(a *shardlink.InstallArgs) { a.MachineIdx = a.MachineIdx[:1] }, "maps 2 machines through 1 fleet indices"},
		{"stride 0", func(a *shardlink.InstallArgs) { a.Stride = 0 }, "at position 1 of 0"},
		{"position outside the stride", func(a *shardlink.InstallArgs) { a.Pos = 2 }, "at position 2 of 2"},
		{"unknown admission mode", func(a *shardlink.InstallArgs) { a.Admission = "lenient" }, `unknown admission mode "lenient"`},
		{"unknown policy", func(a *shardlink.InstallArgs) { a.Policy = "nope" }, `unknown policy "nope"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := sound()
			tc.damage(&args)
			err := install(args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Install = %v, want an error containing %q", err, tc.want)
			}
			// Nothing was left behind under the refused index.
			if err := client.Call("Shard3.RouteInfo", &shardlink.RouteInfoArgs{}, &shardlink.RouteInfoReply{}); err == nil {
				t.Error("the refused shard answers RouteInfo")
			}
		})
	}
	if err := install(sound()); err != nil {
		t.Fatalf("sound Install: %v", err)
	}
	var ri shardlink.RouteInfoReply
	if err := client.Call("Shard3.RouteInfo", &shardlink.RouteInfoArgs{}, &ri); err != nil || ri.Backlog.Sign() != 0 {
		t.Errorf("installed shard's RouteInfo = %+v, %v; want a zero backlog", ri, err)
	}
	if err := install(sound()); err == nil || !strings.Contains(err.Error(), "already hosts shard 3") {
		t.Errorf("second Install of shard 3 = %v, want the duplicate refusal", err)
	}
}
