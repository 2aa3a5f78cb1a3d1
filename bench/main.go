// Command bench is the repository's benchmark: multi-process training
// throughput of four workloads, per-layer probes, and a traced run. See
// README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "run this workload only (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed; it becomes JobSpec.Seed, nothing else about the workload reaches the program")
	seconds := flag.Float64("seconds", 10, "timed-stepping budget of one workload's ten repetitions together: each runs Steps*seconds/100 steps (100 runs the full-size step counts)")
	traceMode := flag.Int("trace", 2, "0: end-to-end metrics only; 1: per-layer metrics only (probes and the traced run); 2: both")
	quick := flag.Bool("quick", false, "smoke run: a tenth of the full-size steps, 1 repetition, 1 probe repetition")
	doCompare := flag.Bool("compare", false, "compare two sides, each the result file of one run or a comma-separated list of them: -compare base.json next.json")
	srcDir := flag.String("src", "bench", "directory of the bench module")
	outDir := flag.String("out", "", "output directory (default <src>/out)")
	role := flag.String("role", "", "internal: child role")
	rank := flag.Int("rank", 0, "internal: rank of a rank child")
	ctrl := flag.String("ctrl", "", "internal: control address of a rank child")
	specJSON := flag.String("spec", "", "internal: JobSpec of rank 0 or the local child")
	probeDur := flag.Duration("probe-dur", 0, "internal: how long a probe child times each probe")
	probeReps := flag.Int("probe-reps", 0, "internal: repetitions of each probe")
	flag.Parse()
	if *outDir == "" {
		*outDir = filepath.Join(*srcDir, "out")
	}

	if *role != "" {
		pc := probeConfig{Dur: *probeDur, Reps: *probeReps, Seed: *seed, TmpDir: *outDir}
		if err := childMain(*role, *rank, *ctrl, *specJSON, *workloadName, pc); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			if err == errPortTaken {
				os.Exit(exitPortTaken)
			}
			os.Exit(1)
		}
		return
	}
	if *doCompare {
		os.Exit(compareMain(flag.Args()))
	}

	cfg := config{
		srcDir: *srcDir, outDir: *outDir,
		runID:   strconv.FormatInt(time.Now().UnixNano(), 36),
		seed:    *seed,
		seconds: *seconds, reps: 10,
		probe:   probeConfig{Dur: time.Duration(*seconds / 30 * float64(time.Second)), Reps: 3},
		e2e:     *traceMode != 1,
		layers:  *traceMode != 0,
		cpus:    runtime.NumCPU(),
		rankGMP: max(1, runtime.NumCPU()/world),
	}
	if *quick {
		cfg.seconds, cfg.reps = 1, 1
		cfg.probe = probeConfig{Dur: 100 * time.Millisecond, Reps: 1}
	}
	if !cfg.e2e {
		// The per-layer run needs one untraced repetition to set the traced
		// one against, of the length the end-to-end run's repetitions have.
		cfg.seconds, cfg.reps = cfg.seconds/float64(cfg.reps), 1
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg.exe = exe
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	// SIGINT or SIGTERM cancels ctx, which kills every child's process group;
	// the job in flight is waited for and counted as failed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	doc := &document{
		Quick: *quick, RunID: cfg.runID, Seed: cfg.seed, Seconds: cfg.seconds,
		Repetitions:      cfg.reps,
		ProbeRepetitions: cfg.probe.Reps, ProbeSeconds: cfg.probe.Dur.Seconds(),
		Machine: machine{CPUs: cfg.cpus, GomaxprocsPerRank: cfg.rankGMP, GoVersion: runtime.Version(), GitCommit: gitCommit(cfg.srcDir)},
		Start:   time.Now(),
	}
	fmt.Printf("bench: run %s, seed %d, %d cpus, GOMAXPROCS %d per rank, %s, commit %s, quick %v\n",
		doc.RunID, doc.Seed, doc.Machine.CPUs, doc.Machine.GomaxprocsPerRank, doc.Machine.GoVersion, doc.Machine.GitCommit, doc.Quick)
	// A workload that overruns six times its usual wall time is cut short, its
	// job in flight killed and counted as failed.
	workloadDeadline := time.Duration(17 * max(*seconds, 10) * float64(time.Second))
	correct := true
	for _, w := range selected {
		wctx, cancel := context.WithTimeout(ctx, workloadDeadline)
		r := measure(wctx, cfg, w).result(cfg)
		cancel()
		r.print(os.Stdout)
		correct = correct && r.Correct
		doc.Workloads = append(doc.Workloads, r)
	}
	doc.End = time.Now()
	resultPath := filepath.Join(cfg.outDir, "result.json")
	if err := doc.write(resultPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("\nbench: %s written, %.1f s\n", resultPath, doc.End.Sub(doc.Start).Seconds())
	if len(doc.Workloads) == 1 {
		fmt.Println(doc.Workloads[0].line())
	}
	if !correct || ctx.Err() != nil {
		os.Exit(1)
	}
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json[,base2.json...] next.json[,next2.json...]")
		return 2
	}
	var sides [2]side
	for i, arg := range args {
		var err error
		if sides[i], err = readSide(arg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	ok, err := compare(os.Stdout, sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

// gitCommit is the commit the measured tree is at, or "unknown" outside a
// git checkout.
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
