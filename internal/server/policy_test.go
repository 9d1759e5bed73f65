package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"divflow/internal/model"
	"divflow/internal/sim"
	"divflow/internal/wal"
)

// The server tests also run three policies the daemon does not serve: SRPT
// and MCT are the cheap, deterministic fixtures (the parent-format WAL was
// written under srpt), and eager online-mwf is the lazy policy without its
// plan cache. FCFS and greedy weighted flow stay unregistered, so a test can
// still name a policy this build does not serve.
func init() {
	policyFactories["srpt"] = func() sim.Policy { return sim.NewSRPT() }
	policyFactories["mct"] = func() sim.Policy { return sim.NewMCT() }
	policyFactories["online-mwf"] = func() sim.Policy { return sim.NewOnlineMWF() }
}

// TestWALRestoreChecksPolicy pins restore's policy check: a directory
// restores only under the policy that wrote it, names compare resolved (the
// empty name is DefaultPolicy, which is also what divflowd's flag passes),
// and a snapshot naming a policy this build does not serve is refused with
// ErrUnknownPolicy and the served names.
func TestWALRestoreChecksPolicy(t *testing.T) {
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir(), Clock: NewVirtualClock()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	other := cfg
	other.Policy = "online-mwf-preempt"
	if _, err := New(other); err == nil || errors.Is(err, ErrUnknownPolicy) ||
		!strings.Contains(err.Error(), `server configured with "online-mwf-preempt"`) {
		t.Fatalf("restore under another policy: err = %v, want a policy mismatch", err)
	}

	named := cfg
	named.Policy = DefaultPolicy
	srv2, _ := reopenServer(t, named)
	if _, known := srv2.jobStatus(0); !known {
		t.Fatal("job 0 lost restoring under the default policy named explicitly")
	}
	srv2.Close()

	// Rename the policy inside the newest snapshot to one this build does
	// not serve, as a directory written by an older build can.
	seq, payload, ok := wal.LoadSnapshot(cfg.WALDir)
	if !ok || !bytes.Contains(payload, []byte(`"policy":"online-mwf-lazy"`)) {
		t.Fatalf("no snapshot naming %s (ok %v)", DefaultPolicy, ok)
	}
	payload = bytes.Replace(payload, []byte(`"policy":"online-mwf-lazy"`), []byte(`"policy":"fcfs"`), 1)
	if err := wal.WriteSnapshot(cfg.WALDir, seq, payload); err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg)
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("restore of an unserved policy: err = %v, want ErrUnknownPolicy", err)
	}
	for _, want := range []string{`"fcfs"`, "online-mwf-lazy", "online-mwf-preempt"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestWALRestoreChecksPolicyBeforeFirstSnapshot pins that a fresh directory
// names its policy before it logs anything: a server that crashes before its
// first cadence snapshot still cannot be replayed under another policy, and
// restores under its own.
func TestWALRestoreChecksPolicyBeforeFirstSnapshot(t *testing.T) {
	vc := NewVirtualClock()
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir(), Policy: "srpt"}
	crashCfg := cfg
	crashCfg.Clock = vc
	srv, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	quiesce(t, srv, vc.Now())
	// Crash: srv is abandoned without Close, so no final snapshot is written.

	other := cfg
	other.Policy = "mct"
	if _, err := New(other); err == nil {
		t.Fatal("a log written under srpt replayed under mct")
	}
	srv2, _ := reopenServer(t, cfg)
	defer srv2.Close()
	if n := srv2.ReplayedRecords(); n == 0 {
		t.Fatal("no WAL records replayed after a crash before the first cadence snapshot")
	}
	if _, known := srv2.jobStatus(0); !known {
		t.Fatal("acknowledged job 0 lost across the crash")
	}
}
