package swarm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// Workers that misbehave, and a supervisor that goes away: the failure
// cases of the control plane, each played by a real child process.

// helperWorker is the child-process side: mode is the envWorker value.
func helperWorker(mode, sup string, index int) error {
	restarted := os.Getenv(EnvRestarts) != "0"
	switch {
	case mode == "crash":
		return errors.New("crashing on purpose")
	case mode == "mute":
		return fakeWorker(sup, index, false)
	case mode == "wedged" && !restarted:
		return fakeWorker(sup, index, true)
	case mode == "garbage" && !restarted:
		if err := probeGarbage(sup); err != nil {
			fmt.Fprintln(os.Stderr, "swarm-test-worker:", err)
			os.Exit(3)
		}
	}
	return RunWorker(WorkerOptions{Supervisor: sup, Index: index, Log: os.Stderr})
}

// fakeWorker registers index from a data socket nobody serves, says it is
// ready and keeps heartbeating, but takes no part in any slot and never
// reports. With wedge set it falls silent at its first start frame,
// process alive and connection open: live but unresponsive.
func fakeWorker(sup string, index int, wedge bool) error {
	sock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sock.Close()
	conn, err := net.Dial("tcp", sup)
	if err != nil {
		return err
	}
	defer conn.Close()
	c := newCtrlConn(conn)
	started, lost := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			f, err := c.recv()
			if err != nil {
				lost <- err
				return
			}
			if f.Start != nil && wedge {
				close(started)
				return
			}
		}
	}()
	for {
		if err := c.send(frame{Hello: &hello{Index: index, Ready: true, DataAddr: sock.LocalAddr().String()}}); err != nil {
			return err
		}
		select {
		case <-started:
			select {}
		case <-lost:
			return nil // the supervisor is gone
		case <-time.After(heartbeatEvery):
		}
	}
}

// probeGarbage writes to the supervisor what a stranger on the loopback
// interface might, one connection each, and expects every connection to
// be closed on it without a byte in reply.
func probeGarbage(sup string) error {
	for name, payload := range map[string]string{
		"garbage":                 "GET / HTTP/1.1\r\n\r\n",
		"no frame":                "{}\n",
		"index out of range":      `{"hello":{"Index":9999,"Ready":true,"DataAddr":"127.0.0.1:1"}}` + "\n",
		"negative index":          `{"hello":{"Index":-1}}` + "\n",
		"no data address":         `{"hello":{"Index":1}}` + "\n",
		"hostname data address":   `{"hello":{"Index":1,"DataAddr":"localhost:1"}}` + "\n",
		"report before any hello": `{"report":{"Slot":1,"Sampled":true}}` + "\n",
		"a supervisor's frame":    `{"start":{"Slot":1}}` + "\n",
		"oversized line":          strings.Repeat("x", maxFrameBytes+1),
	} {
		conn, err := net.Dial("tcp", sup)
		if err != nil {
			return err
		}
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = io.WriteString(conn, payload) // may be cut short by the close it provokes
		reply, err := io.ReadAll(conn)
		conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("%s: connection still open after 2s", name)
		}
		if len(reply) > 0 {
			return fmt.Errorf("%s: got a reply: %q", name, reply)
		}
	}
	return nil
}

// TestSwarmMuteWorker: node 0 registers, says it is ready and heartbeats,
// but never reports. Each slot ends at the slot timeout with everyone
// else's report, node 0 is not declared dead, and the run goes on.
func TestSwarmMuteWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res, err := Run(Options{
		N:           6,
		Slots:       2,
		Seed:        5,
		Geometry:    testGeometry(),
		Command:     selfCommand(t, map[int]string{0: "mute"}),
		Log:         testLog(),
		slotTimeout: 3500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlotResults) != 2 {
		t.Fatalf("got %d slot results, want 2", len(res.SlotResults))
	}
	for _, sr := range res.SlotResults {
		if sr.Reports != res.N-1 {
			t.Errorf("slot %d: %d reports, want %d", sr.Slot, sr.Reports, res.N-1)
		}
		if mute := sr.Outcomes[0]; mute.Dead || mute.Sampling >= 0 || mute.FetchMsgs != 0 {
			t.Errorf("slot %d: mute node's outcome %+v, want alive and empty", sr.Slot, mute)
		}
	}
	if res.TotalRestarts != 0 {
		t.Errorf("restarts: %d, want 0", res.TotalRestarts)
	}
}

// TestSwarmWedgedWorker: node 0 stops heartbeating when slot 1 starts,
// process alive and connection open. The supervisor kills it at the
// heartbeat timeout and restarts it; the successor is handed slot 1's
// start on its new connection (a rejoin) and reports slot 2.
func TestSwarmWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res, err := Run(Options{
		N:                6,
		Slots:            2,
		Seed:             6,
		Geometry:         testGeometry(),
		Command:          selfCommand(t, map[int]string{0: "wedged"}),
		Log:              testLog(),
		heartbeatTimeout: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRestarts != 1 {
		t.Errorf("restarts: %d, want 1", res.TotalRestarts)
	}
	first, last := res.SlotResults[0], res.SlotResults[1]
	if first.Restarts != 1 || first.Rejoined != 1 || first.Outcomes[0].LeftAt < 0 || first.Outcomes[0].JoinedAt < first.Outcomes[0].LeftAt {
		t.Errorf("slot 1: restarts %d, rejoined %d, node 0 %+v", first.Restarts, first.Rejoined, first.Outcomes[0])
	}
	if last.Reports != res.N || last.Outcomes[0].Sampling < 0 {
		t.Errorf("slot 2: %d/%d reports, node 0 %+v", last.Reports, res.N, last.Outcomes[0])
	}
}

// TestSwarmCrashLoopDuringBootstrap: a worker that exits at once every
// time it is launched uses up its restarts; Run gives up with an error
// and leaves no child behind.
func TestSwarmCrashLoopDuringBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	command := selfCommand(t, map[int]string{2: "crash"})
	var launched []*exec.Cmd // Command is called on the goroutine that called Run
	_, err := Run(Options{
		N:        6,
		Seed:     7,
		Geometry: testGeometry(),
		Command: func(index int) *exec.Cmd {
			cmd := command(index)
			launched = append(launched, cmd)
			return cmd
		},
		Log:         testLog(),
		maxRestarts: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "failed permanently during bootstrap") {
		t.Fatalf("err = %v, want a bootstrap failure", err)
	}
	if want := 7 + 2; len(launched) != want {
		t.Errorf("%d processes launched, want %d (7 workers, 2 restarts)", len(launched), want)
	}
	for _, cmd := range launched {
		if cmd.ProcessState == nil {
			t.Errorf("pid %d not reaped when Run returned", cmd.Process.Pid)
		}
	}
}

// TestSwarmRejectsGarbageConnections: before worker 1 registers, its
// process opens raw connections to the control listener and writes
// garbage, frames that do not belong, out-of-range indexes, hellos whose
// data address is not a numeric ip:port and an endless line (probeGarbage,
// which fails unless each is closed unanswered). None of it touches the
// workers: no restart, every report.
func TestSwarmRejectsGarbageConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	command := selfCommand(t, map[int]string{1: "garbage"})
	var worker1 strings.Builder // a failed probe says on stderr which line was accepted
	res, err := Run(Options{
		N:        6,
		Seed:     8,
		Geometry: testGeometry(),
		Command: func(index int) *exec.Cmd {
			cmd := command(index)
			if index == 1 {
				cmd.Stderr = &worker1
			}
			return cmd
		},
		Log: testLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRestarts != 0 {
		t.Errorf("restarts: %d, want 0; worker 1 said:\n%s", res.TotalRestarts, worker1.String())
	}
	if sr := res.SlotResults[0]; sr.Reports != res.N {
		t.Errorf("%d/%d reports", sr.Reports, res.N)
	}
}

// TestWorkerExitsWhenSupervisorGone: the test plays supervisor for one
// worker process, answers its hello and closes the connection. The worker
// must drain as on SIGTERM and exit 0; it used to run on forever.
func TestWorkerExitsWhenSupervisorGone(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real process")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cmd := selfCommand(t, nil)(0)
	cmd.Args = append(cmd.Args, "-swarm", ln.Addr().String(), "-index", "0")
	cmd.Env = append(cmd.Env, EnvRestarts+"=0")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := newCtrlConn(conn)
	f, err := c.recv()
	if err != nil || f.Hello == nil || f.Hello.Index != 0 {
		t.Fatalf("first frame %+v, err %v; want worker 0's hello", f, err)
	}
	peers := []string{f.Hello.DataAddr, "", "", "", ""}
	if err := c.send(frame{Config: &config{Nodes: 4, Seed: 9, Geometry: testGeometry(), Peers: peers}}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("worker exited with %v, want 0:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "control connection ended") {
			t.Errorf("worker did not say why it drained:\n%s", stderr.String())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker still running 2s after its supervisor went away")
	}
}
