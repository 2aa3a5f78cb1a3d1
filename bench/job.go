package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/distrun"
)

// headStart is how long rank 0 runs alone before the workers of a Steps=0 job
// are spawned, so that its control listener is up and no worker lands in
// dist.Join's 100 ms redial sleep, which would put a 100 ms step into set-up
// time. It is excluded from every metric: set-up time counts from worker
// spawn. A timed job times distrun.Run alone, which starts after the
// rendezvous, so a redial costs it nothing and shortHeadStart is enough.
const (
	headStart      = 300 * time.Millisecond
	shortHeadStart = 100 * time.Millisecond
)

// child is one process the harness started: a re-exec of its own binary, or
// a CLI binary of the parity check. It is in a process group of its own, and
// cancelling its context kills the group, so that anything it spawned goes
// with it.
type child struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
}

func startChild(ctx context.Context, exe string, gomaxprocs int, args ...string) (*child, error) {
	c := &child{cmd: exec.CommandContext(ctx, exe, args...)}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.cmd.Cancel = func() error { return syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) }
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// wait blocks until the child has exited and decodes the last line of its
// standard output into out.
func (c *child) wait(out any) error {
	if err := c.cmd.Wait(); err != nil {
		if c.cmd.ProcessState.ExitCode() == exitPortTaken {
			return errPortTaken
		}
		return fmt.Errorf("%w: %s", err, lastLines(c.stderr.String(), 3))
	}
	line := lastLines(c.stdout.String(), 1)
	if err := json.Unmarshal([]byte(line), out); err != nil {
		return fmt.Errorf("bad child output %.80q: %w", line, err)
	}
	return nil
}

func (c *child) maxRSSKB() int64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], " | ")
}

// runChild runs one single-process child role to completion.
func runChild(ctx context.Context, exe string, gomaxprocs int, timeout time.Duration, out any, args ...string) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c, err := startChild(ctx, exe, gomaxprocs, args...)
	if err != nil {
		return err
	}
	if err := c.wait(out); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%s child killed at its %v deadline", args[1], timeout)
		}
		return err
	}
	return nil
}

// freeAddr takes a control address from a :0 probe: the kernel picks a port
// nothing holds, and the listener is closed again for rank 0 to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// jobResult is one multi-process job as the parent saw it.
type jobResult struct {
	Ranks []childOut
	// SpawnNs[r] is the parent's clock just before it started rank r, and
	// ExitNs[r] when it saw that rank gone.
	SpawnNs  []int64
	ExitNs   []int64
	MaxRSSKB int64
}

func (j *jobResult) sentBytes() (n int64) {
	for _, r := range j.Ranks {
		n += r.Bytes
	}
	return n
}

func (j *jobResult) sentFrames() (n int64) {
	for _, r := range j.Ranks {
		n += r.Frames
	}
	return n
}

func (j *jobResult) mallocs() (n uint64) {
	for _, r := range j.Ranks {
		n += r.Mallocs
	}
	return n
}

// runJob runs spec as four rank processes and waits until every one of them
// has ended. The job's deadline covers spawn to last exit; on expiry, on a
// failed rank, or when ctx is cancelled (SIGINT), every process group is
// killed, so a job never hangs and never leaves a process behind.
func runJob(ctx context.Context, cfg config, head, deadline time.Duration, spec distrun.JobSpec) (*jobResult, error) {
	for try := 1; ; try++ {
		res, err := runJobOnce(ctx, cfg, head, deadline, spec)
		if !errors.Is(err, errPortTaken) || try == 3 {
			return res, err
		}
	}
}

func runJobOnce(parent context.Context, cfg config, head, deadline time.Duration, spec distrun.JobSpec) (*jobResult, error) {
	ctrl, err := freeAddr()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(parent, deadline)
	defer cancel()

	res := &jobResult{
		Ranks:   make([]childOut, world),
		SpawnNs: make([]int64, world),
		ExitNs:  make([]int64, world),
	}
	// The first rank to fail is the cause; the ranks killed after it only
	// report the kill.
	var failOnce sync.Once
	var failure error
	fail := func(err error) {
		failOnce.Do(func() {
			failure = err
			cancel() // a dead rank poisons the job: do not wait for the peers to notice
		})
	}
	kids := make([]*child, 0, world)
	var wg sync.WaitGroup
	for r := 0; r < world && ctx.Err() == nil; r++ {
		args := []string{"-role", roleRank, "-rank", strconv.Itoa(r), "-ctrl", ctrl}
		if r == 0 {
			args = append(args, "-spec", string(spec.Marshal()))
		}
		res.SpawnNs[r] = time.Now().UnixNano()
		c, err := startChild(ctx, cfg.exe, cfg.rankGMP, args...)
		if err != nil {
			fail(fmt.Errorf("spawn rank %d: %w", r, err))
			break
		}
		kids = append(kids, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.wait(&res.Ranks[r])
			res.ExitNs[r] = time.Now().UnixNano()
			if err != nil {
				fail(fmt.Errorf("rank %d: %w", r, err))
			}
		}()
		if r == 0 {
			select {
			case <-time.After(head):
			case <-ctx.Done():
			}
		}
	}
	wg.Wait()
	switch {
	case parent.Err() != nil:
		return nil, parent.Err()
	case failure == nil:
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return nil, fmt.Errorf("job killed at its %v deadline", deadline)
	default:
		return nil, failure
	}
	for _, c := range kids {
		res.MaxRSSKB = max(res.MaxRSSKB, c.maxRSSKB())
	}
	return res, nil
}
