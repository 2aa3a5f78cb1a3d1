package distrun

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildCmds compiles jaxpp-train and jaxpp-worker once per test binary run
// (the Go build cache makes reruns near-instant) and returns their paths.
var buildCmds = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "jaxpp-dist-cmds-")
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, name := range []string{"jaxpp-train", "jaxpp-worker"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
		cmd.Dir = repoRoot()
		if b, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out, nil
})

func repoRoot() string {
	// Tests run with CWD = package dir (internal/distrun).
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd))
}

func procFreeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// launchProcesses starts 1 coordinator jaxpp-train + (world-1) jaxpp-worker
// OS processes for the spec and returns the coordinator cmd, worker cmds,
// and the losses-out path.
func launchProcesses(t *testing.T, bins map[string]string, spec JobSpec, extra ...string) (*exec.Cmd, []*exec.Cmd, string) {
	t.Helper()
	addr := procFreeAddr(t)
	lossesPath := filepath.Join(t.TempDir(), "losses.json")
	args := []string{
		"-distributed", "-coordinator", addr,
		"-stages", fmt.Sprint(spec.Stages), "-mb", fmt.Sprint(spec.NumMB),
		"-mbrows", fmt.Sprint(spec.MBRows), "-width", fmt.Sprint(spec.Width),
		"-steps", fmt.Sprint(spec.Steps), "-lr", fmt.Sprint(spec.LR),
		"-schedule", spec.Schedule, "-dp", fmt.Sprint(spec.DataParallel),
		"-seed", fmt.Sprint(spec.Seed), "-losses-out", lossesPath,
		"-step-sleep-ms", fmt.Sprint(spec.StepSleepMs),
	}
	args = append(args, extra...)
	coord := exec.Command(bins["jaxpp-train"], args...)
	var coordOut strings.Builder
	coord.Stdout, coord.Stderr = &coordOut, &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if coord.Process != nil {
			coord.Process.Kill()
		}
		coord.Wait() // second Wait errors harmlessly; ensures the output copier finished
		t.Logf("coordinator output:\n%s", coordOut.String())
	})
	var workers []*exec.Cmd
	for w := 1; w < spec.World(); w++ {
		wk := exec.Command(bins["jaxpp-worker"], "-coordinator", addr)
		var out strings.Builder
		wk.Stdout, wk.Stderr = &out, &out
		if err := wk.Start(); err != nil {
			t.Fatal(err)
		}
		w := w
		t.Cleanup(func() {
			if wk.Process != nil {
				wk.Process.Kill()
			}
			wk.Wait()
			t.Logf("worker %d output:\n%s", w, out.String())
		})
		workers = append(workers, wk)
	}
	return coord, workers, lossesPath
}

func waitWithTimeout(t *testing.T, cmd *exec.Cmd, d time.Duration, who string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		cmd.Process.Kill()
		t.Fatalf("%s did not exit within %v", who, d)
		return nil
	}
}

// TestKilledWorkerProcessFailsDriver SIGKILLs one worker process mid-job and
// requires the coordinator process to exit nonzero (transport poisoned)
// instead of hanging.
func TestKilledWorkerProcessFailsDriver(t *testing.T) {
	bins, err := buildCmds()
	if err != nil {
		t.Skipf("cannot build cmd binaries in this environment: %v", err)
	}
	spec := JobSpec{
		Stages: 3, NumMB: 3, MBRows: 2, Width: 8,
		Steps: 100000, LR: 0.1, Schedule: "1f1b", Seed: 1, StepSleepMs: 2,
	}
	coord, workers, _ := launchProcesses(t, bins, spec)

	// Give the job time to bootstrap and run a few steps, then kill -9 the
	// last worker.
	time.Sleep(3 * time.Second)
	victim := workers[len(workers)-1]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	err = waitWithTimeout(t, coord, 60*time.Second, "coordinator")
	if err == nil {
		t.Fatal("coordinator exited cleanly despite a SIGKILLed worker")
	}
}

// TestElasticOSProcessesSurviveSIGKILL is the chaos acceptance test: a
// 4-process elastic job (1 jaxpp-train -elastic coordinator + 3 jaxpp-worker
// -reconnect daemons) loses one worker to SIGKILL mid-training, and the
// survivors must re-rendezvous into a smaller world, resume from the newest
// committed checkpoint, and run the job to completion with exit 0 all round.
func TestElasticOSProcessesSurviveSIGKILL(t *testing.T) {
	bins, err := buildCmds()
	if err != nil {
		t.Skipf("cannot build cmd binaries in this environment: %v", err)
	}
	addr := procFreeAddr(t)
	ckptDir := t.TempDir()
	lossesPath := filepath.Join(t.TempDir(), "losses.json")

	coord := exec.Command(bins["jaxpp-train"],
		"-distributed", "-elastic", "-coordinator", addr,
		"-stages", "1", "-dp", "4", "-mb", "2", "-mbrows", "4", "-width", "16",
		"-steps", "250", "-lr", "0.1", "-momentum", "0.9", "-schedule", "1f1b",
		"-seed", "7", "-step-sleep-ms", "20",
		"-ckpt-dir", ckptDir, "-ckpt-every", "5", "-min-replicas", "2",
		"-hb-interval", "50ms", "-hb-misses", "10", "-join-grace", "1s",
		"-losses-out", lossesPath,
	)
	var coordOut strings.Builder
	coord.Stdout, coord.Stderr = &coordOut, &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if coord.Process != nil {
			coord.Process.Kill()
		}
		coord.Wait()
		t.Logf("coordinator output:\n%s", coordOut.String())
	})

	workers := make([]*exec.Cmd, 3)
	outs := make([]*strings.Builder, 3)
	for w := range workers {
		wk := exec.Command(bins["jaxpp-worker"],
			"-coordinator", addr, "-reconnect", "-reconnect-backoff", "100ms",
		)
		outs[w] = &strings.Builder{}
		wk.Stdout, wk.Stderr = outs[w], outs[w]
		if err := wk.Start(); err != nil {
			t.Fatal(err)
		}
		workers[w] = wk
		w := w
		t.Cleanup(func() {
			if wk.Process != nil {
				wk.Process.Kill()
			}
			wk.Wait()
			t.Logf("worker %d output:\n%s", w, outs[w].String())
		})
	}

	// Let the world form and train past several checkpoint commits (250
	// steps at 20ms/step is >= 5s of training; the step-5 checkpoint lands
	// within the first few hundred ms), then kill -9 a worker.
	time.Sleep(3 * time.Second)
	victim := workers[1]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	if err := waitWithTimeout(t, coord, 120*time.Second, "coordinator"); err != nil {
		t.Fatalf("elastic coordinator failed to recover: %v\n%s", err, coordOut.String())
	}
	for w, wk := range workers {
		if wk == victim {
			wk.Wait() // reaps the SIGKILLed process; error expected
			continue
		}
		if err := waitWithTimeout(t, wk, 30*time.Second, fmt.Sprintf("worker %d", w)); err != nil {
			t.Fatalf("surviving worker %d failed: %v\n%s", w, err, outs[w].String())
		}
	}

	out := coordOut.String()
	if !strings.Contains(out, "elastic attempt 2") {
		t.Fatalf("coordinator never re-rendezvoused:\n%s", out)
	}
	if !strings.Contains(out, "restored checkpoint step") {
		t.Fatalf("coordinator resumed without restoring a checkpoint:\n%s", out)
	}
	if _, err := os.Stat(lossesPath); err != nil {
		t.Fatalf("recovered run wrote no losses: %v", err)
	}
}
