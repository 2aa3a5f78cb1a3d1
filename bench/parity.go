package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/distrun"
)

// parityMaxSteps bounds the CLI run of the parity check.
const parityMaxSteps = 20

// cliParity shows that the harness children run what the CLI runs: it builds
// cmd/jaxpp-train and cmd/jaxpp-worker into tmp, runs the first steps of
// spec with them (-distributed -losses-out), and requires their losses to
// equal the harness's bit for bit.
func cliParity(ctx context.Context, cfg config, spec distrun.JobSpec, want []float64, tmp string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	tmp, err := filepath.Abs(tmp)
	if err != nil {
		return err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", tmp+string(filepath.Separator), "repro/cmd/jaxpp-train", "repro/cmd/jaxpp-worker")
	build.Dir = cfg.srcDir
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, lastLines(string(out), 3))
	}
	ctrl, err := freeAddr()
	if err != nil {
		return err
	}
	steps := min(spec.Steps, parityMaxSteps)
	lossesPath := filepath.Join(tmp, "cli-losses.json")
	train := []string{
		"-distributed", "-coordinator", ctrl, "-losses-out", lossesPath,
		"-stages", strconv.Itoa(spec.Stages), "-mb", strconv.Itoa(spec.NumMB), "-mbrows", strconv.Itoa(spec.MBRows),
		"-width", strconv.Itoa(spec.Width), "-steps", strconv.Itoa(steps), "-schedule", spec.Schedule,
		"-lr", strconv.FormatFloat(spec.LR, 'g', -1, 64), "-momentum", strconv.FormatFloat(spec.Momentum, 'g', -1, 64),
		"-dp", strconv.Itoa(spec.DataParallel), "-seed", strconv.FormatUint(spec.Seed, 10),
		"-wire-dtype", spec.WireDType, "-sharded=" + strconv.FormatBool(spec.Sharded),
	}
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		exe, args := filepath.Join(tmp, "jaxpp-worker"), []string{"-coordinator", ctrl, "-rank", strconv.Itoa(r)}
		if r == 0 {
			exe, args = filepath.Join(tmp, "jaxpp-train"), train
		}
		c, err := startChild(ctx, exe, cfg.rankGMP, args...)
		if err != nil {
			cancel()
			errs[r] = err
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.cmd.Wait(); err != nil {
				errs[r] = fmt.Errorf("%w: %s", err, lastLines(c.stderr.String(), 3))
				cancel()
			}
		}()
		if r == 0 {
			time.Sleep(headStart)
		}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("CLI rank %d: %w", r, err)
		}
	}
	data, err := os.ReadFile(lossesPath)
	if err != nil {
		return err
	}
	var got struct {
		StepLosses []float64 `json:"step_losses"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	if len(got.StepLosses) != steps || len(want) < steps {
		return fmt.Errorf("CLI wrote %d losses, harness has %d, want %d", len(got.StepLosses), len(want), steps)
	}
	for i, l := range got.StepLosses {
		if l != want[i] {
			return fmt.Errorf("step %d: CLI loss %v, harness loss %v", i, l, want[i])
		}
	}
	return nil
}
