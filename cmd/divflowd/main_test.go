package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"divflow/internal/model"
)

// proc wraps a divflowd child process with a line-buffered view of its
// stderr, so tests can wait for the startup log lines that announce bound
// addresses.
type proc struct {
	cmd   *exec.Cmd
	lines chan string
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // never block the child on a slow test reader
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	})
	return p
}

// waitLine returns the first stderr line containing substr.
func (p *proc) waitLine(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("process exited before logging %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for log line containing %q", substr)
		}
	}
}

// buildDivflowd builds the real binary once into a temp dir.
func buildDivflowd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "divflowd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestShutdownAnswersInflightRequest pins graceful shutdown: a request the
// daemon is already serving when SIGTERM arrives is answered in full before
// the process exits. The client sends its headers and half a body, waits for
// the handler to be reading it, signals, and only then completes the body.
func TestShutdownAnswersInflightRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the divflowd binary")
	}
	bin := buildDivflowd(t)
	p := startProc(t, bin, "-addr", "127.0.0.1:0", "-platform", "../../testdata/platform.json")
	line := p.waitLine(t, "serving 3 machines in ")
	rest := line[strings.Index(line, " shards on ")+len(" shards on "):]
	addr := strings.TrimSpace(strings.Split(rest, " ")[0])

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(15 * time.Second))
	const body = `{"size":"1/2","databanks":["swissprot"]}`
	// Expect: 100-continue makes the server say when the handler has started
	// reading the body — the request is then in flight, not merely accepted.
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n", addr, len(body))
	br := bufio.NewReader(conn)
	if status, err := br.ReadString('\n'); err != nil || !strings.Contains(status, "100 Continue") {
		t.Fatalf("waiting for the handler to read the body: %q, %v", status, err)
	}
	if _, err := br.ReadString('\n'); err != nil { // blank line ending the interim response
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(body[:len(body)/2])); err != nil {
		t.Fatal(err)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitLine(t, "shutting down")
	// Long enough for a daemon that does not wait for its handlers to be gone;
	// one that does wait passes however long this is.
	time.Sleep(300 * time.Millisecond)
	if _, err := conn.Write([]byte(body[len(body)/2:])); err != nil {
		t.Fatalf("completing the body after SIGTERM: %v", err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request got no response after SIGTERM: %v", err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("in-flight response cut short: %v", err)
	}
	switch {
	case resp.StatusCode/100 == 2:
	case resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(answer), `"fleet_closed"`):
	default:
		t.Fatalf("in-flight request answered %d %s, want 2xx or a fleet_closed 503", resp.StatusCode, answer)
	}

	p.waitExit(t)
}

// waitExit waits for the process to exit and requires exit status 0.
func (p *proc) waitExit(t *testing.T) {
	t.Helper()
	// The child closes stderr when it exits; only then is Wait safe to call.
	exited := time.After(15 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-p.lines:
		case <-exited:
			t.Fatal("process still running 15s after it was told to stop")
		}
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("process exit after graceful shutdown: %v", err)
	}
}

// TestSIGHUPKeepsDaemonsAlive: a HUP (log rotation, an operator's reload) must
// not kill a daemon started with -reshard=false, which rejects the reload.
// Unhandled, SIGHUP's default action exits the process: no final snapshot,
// in-flight requests lost. It must then still stop cleanly on SIGTERM.
func TestSIGHUPKeepsDaemonsAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the divflowd binary")
	}
	bin := buildDivflowd(t)

	router := startProc(t, bin, "-addr", "127.0.0.1:0", "-reshard=false", "-platform", "../../testdata/platform.json")
	line := router.waitLine(t, "serving 3 machines in ")
	rest := line[strings.Index(line, " shards on ")+len(" shards on "):]
	base := "http://" + strings.TrimSpace(strings.Split(rest, " ")[0])
	if err := router.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	router.waitLine(t, "SIGHUP reshard rejected: ")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("router gone after SIGHUP: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after SIGHUP = %d, want 200", resp.StatusCode)
	}
	if err := router.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	router.waitExit(t)
}

// TestDaemonServesPaperPolicies pins the production policy map, which only the
// built binary sees (the package tests register baselines of their own): the
// daemon serves the paper's two online max-weighted-flow policies, refuses
// every baseline at startup naming the two, and -help lists exactly them.
func TestDaemonServesPaperPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the divflowd binary")
	}
	bin := buildDivflowd(t)
	served := []string{"online-mwf-lazy", "online-mwf-preempt"}

	help, err := exec.Command(bin, "-help").CombinedOutput()
	if err != nil {
		t.Fatalf("-help: %v\n%s", err, help)
	}
	_, usage, _ := strings.Cut(string(help), "scheduling policy: ")
	usage, _, _ = strings.Cut(usage, " (default ")
	if got := strings.Split(usage, ", "); !slices.Equal(got, served) {
		t.Errorf("-help lists policies %q, want %q", got, served)
	}

	for _, name := range []string{"srpt", "mct", "fcfs", "greedy-wflow", "online-mwf"} {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0",
			"-platform", "../../testdata/platform.json", "-policy", name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut {
			t.Errorf("-policy %s: daemon started (err %v, still running %v); stderr:\n%s", name, err, timedOut, &stderr)
			continue
		}
		for _, want := range served {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-policy %s: stderr does not name %s:\n%s", name, want, &stderr)
			}
		}
	}
}

// TestRestartRestoresFromSealedLog runs the built binary on a WAL directory:
// a few jobs complete under cadence snapshots, SIGTERM, and a restart on the
// same directory must answer /v1/stats with the same jobsCompleted and
// maxWeightedFlow, replaying nothing. Every snapshot seals the log segment it
// covers, so the directory holds at most two segments, the first starting
// just past the older snapshot's watermark.
func TestRestartRestoresFromSealedLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the divflowd binary")
	}
	bin := buildDivflowd(t)
	walDir := t.TempDir()
	// start launches the daemon on walDir; on a restart it requires the
	// restore line, which comes before the one naming the address.
	start := func(restart bool) (*proc, string) {
		t.Helper()
		p := startProc(t, bin, "-addr", "127.0.0.1:0", "-platform", "../../testdata/platform.json",
			"-wal-dir", walDir, "-snapshot-every", "4")
		if restart {
			if line := p.waitLine(t, "restored durable state"); !strings.Contains(line, ": 0 WAL records replayed") {
				t.Errorf("restart after SIGTERM: %q, want 0 WAL records replayed", line)
			}
		}
		line := p.waitLine(t, "serving 3 machines in ")
		rest := line[strings.Index(line, " shards on ")+len(" shards on "):]
		return p, "http://" + strings.TrimSpace(strings.Split(rest, " ")[0])
	}
	stats := func(base string) model.StatsResponse {
		t.Helper()
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st model.StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	p, base := start(false)
	const jobs = 4
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"size":"1/2","weight":"%d","databanks":["swissprot"]}`, i+1)
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	var before model.StatsResponse
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if before = stats(base); before.JobsCompleted == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs completed in 30s", before.JobsCompleted, jobs)
		}
	}
	if before.MaxWeightedFlow == "" || before.WAL == nil || before.WAL.Snapshots < 3 {
		t.Fatalf("before the restart: maxWeightedFlow %q, WAL %+v; want a flow and cadence snapshots", before.MaxWeightedFlow, before.WAL)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.waitExit(t)

	snaps, _ := filepath.Glob(filepath.Join(walDir, "snap-*.json"))
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if len(snaps) != 2 || len(segs) == 0 || len(segs) > 2 {
		t.Fatalf("after SIGTERM the directory holds snapshots %v and segments %v; want two snapshots and at most two segments", snaps, segs)
	}
	var older, first uint64
	fmt.Sscanf(filepath.Base(snaps[0]), "snap-%016x.json", &older)
	fmt.Sscanf(filepath.Base(segs[0]), "wal-%016x.log", &first)
	if first != older+1 {
		t.Fatalf("the log starts at seq %d, want %d: just past the older snapshot's watermark", first, older+1)
	}

	p2, base2 := start(true)
	after := stats(base2)
	if after.JobsCompleted != before.JobsCompleted || after.MaxWeightedFlow != before.MaxWeightedFlow {
		t.Errorf("after the restart: %d completed, maxWeightedFlow %s; before: %d, %s",
			after.JobsCompleted, after.MaxWeightedFlow, before.JobsCompleted, before.MaxWeightedFlow)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p2.waitExit(t)
}

// TestDebugAddrServesPprofOnItsOwnListener starts the daemon with both
// listeners on ephemeral ports: /debug/pprof/ answers on the -debug-addr
// listener and is not found on the API's.
func TestDebugAddrServesPprofOnItsOwnListener(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the divflowd binary")
	}
	p := startProc(t, buildDivflowd(t), "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-platform", "../../testdata/platform.json")
	line := p.waitLine(t, "pprof on ")
	debug := "http://" + strings.TrimSuffix(line[strings.Index(line, "pprof on ")+len("pprof on "):], "/debug/pprof/")
	line = p.waitLine(t, "serving 3 machines in ")
	api := "http://" + strings.TrimSpace(strings.Split(line[strings.Index(line, " shards on ")+len(" shards on "):], " ")[0])
	for _, tc := range []struct {
		base string
		want int
	}{{debug, http.StatusOK}, {api, http.StatusNotFound}} {
		resp, err := http.Get(tc.base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s/debug/pprof/: HTTP %d, want %d", tc.base, resp.StatusCode, tc.want)
		}
	}
}
