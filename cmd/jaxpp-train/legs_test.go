package main

import (
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
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/timeline"
)

// A leg trains one job across OS processes — a jaxpp-train -distributed
// coordinator and world-1 jaxpp-worker daemons over localhost TCP — then
// trains it again in one process with the same flags, and the two
// -losses-out files must be byte-equal.
type leg struct {
	name  string
	world int
	flags string
	// lossy: a second distributed run writes the same losses, and the
	// in-process run different ones (the frames were quantized).
	lossy bool
	// golden: a file under testdata the distributed losses must equal byte
	// for byte on amd64, where it was written.
	golden string
	// live: flags for the distributed run's coordinator and for its first
	// worker, and a check made while that run trains.
	live func(t *testing.T) (flags, worker []string, check func() error)
	// check: what the distributed run's processes printed, and the
	// directory it ran in.
	check func(t *testing.T, out, dir string)
}

var legs = []leg{
	{name: "dp2x2-crc-momentum", world: 4, flags: "-dp 2 -stages 2 -mb 4 -steps 3 -momentum 0.9 -crc",
		check: optStateShare(4, 26)},
	{name: "pp4", world: 4, flags: "-stages 4 -mb 8 -steps 3"},
	// Three replicas: a gradient sum is two additions, which the reduce
	// half must make in the in-process all-reduce's order. Width 17 splits a
	// stage's 289 elements 97/96/96.
	{name: "dp3x2-width17", world: 6, flags: "-dp 3 -stages 2 -mb 4 -width 17 -steps 5 -lr 0.1 -momentum 0.9"},
	// Lossy is not nondeterministic: the residual, the grids and the ring
	// order are fixed by the job. The goldens pin the bits of every int8q
	// frame, as they were before error feedback moved into the encoder.
	{name: "dp2x2-int8q", world: 4, flags: "-dp 2 -stages 2 -width 64 -steps 20 -lr 0.05 -wire-dtype int8q -momentum 0.9",
		lossy: true, golden: "dp2x2-int8q.losses.json"},
	// Three replicas: hop 1 ships a partial sum, quantized afresh without
	// feedback.
	{name: "dp3x2-width17-int8q", world: 6, flags: "-dp 3 -stages 2 -mb 4 -width 17 -steps 5 -lr 0.1 -momentum 0.9 -wire-dtype int8q",
		lossy: true, golden: "dp3x2-width17-int8q.losses.json"},
	// Every cross-rank frame waits out a modeled WAN hop, which must not
	// touch payload bits or per-link order.
	{name: "dp2x2-shaped", world: 4, flags: "-dp 2 -stages 2 -mb 4 -steps 3 -crc -net-latency 5ms -net-jitter 2ms -net-bw-gbs 0.5 -net-seed 7"},
	// Rings of eight in both halves of the epilogue; seven ranks hand rank 0
	// their losses at job end.
	{name: "dp8-crc", world: 8, flags: "-dp 8 -stages 1 -mb 2 -steps 5 -momentum 0.9 -crc"},
	// A non-power-of-two group; width 2 splits the stage's 4 elements
	// 1/1/1/1/0, so rank 3 reduces, updates and gathers an empty chunk.
	{name: "dp5-width2-crc", world: 5, flags: "-dp 5 -stages 1 -mb 2 -width 2 -steps 5 -lr 0.1 -momentum 0.9 -crc",
		check: func(t *testing.T, out, _ string) {
			if !strings.Contains(out, "rank 3 sharded optimizer state 0/32 bytes") {
				t.Errorf("rank 3 holds optimizer state, want an empty chunk:\n%s", out)
			}
		}},
	// The 2×2 jobs of the former in-package process tests; the second pins
	// that -sharded is still accepted, since bench/parity.go passes it.
	// ROADMAP direction 8(a) removes both.
	{name: "dp2x2-width16", world: 4, flags: "-dp 2 -stages 2 -mb 4 -mbrows 4 -width 16 -steps 5 -lr 0.5 -seed 11"},
	{name: "dp2x2-width16-sharded", world: 4, flags: "-dp 2 -stages 2 -mb 4 -mbrows 4 -width 16 -steps 5 -lr 0.5 -seed 11 -momentum 0.9 -sharded=true"},
	{name: "dp2x2-trace", world: 4, flags: "-dp 2 -stages 2 -mb 4 -steps 3 -profile -trace-out trace.json",
		check: traceCoversRanks(4)},
	{name: "dp2x2-metrics", world: 4, flags: "-dp 2 -stages 2 -mb 4 -steps 25",
		live: liveMetrics(4)},
}

// legTimeout bounds every process of a leg, so a hang fails the test.
const legTimeout = 90 * time.Second

func TestLegs(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "repro/cmd/jaxpp-train", "repro/cmd/jaxpp-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			flags := strings.Fields(l.flags)
			local := trainLocal(t, bin, flags)
			var extra, worker []string
			var check func() error
			if l.live != nil {
				extra, worker, check = l.live(t)
			}
			losses, out, dir := trainAcross(t, bin, l.world, append(flags, extra...), worker, check)
			switch {
			case !l.lossy && !bytes.Equal(losses, local):
				t.Errorf("distributed losses differ from the in-process run's:\n%s\nin-process:\n%s", losses, local)
			case l.lossy && bytes.Equal(losses, local):
				t.Errorf("lossy losses equal the in-process f64 run's: nothing was quantized")
			}
			if l.lossy {
				if again, _, _ := trainAcross(t, bin, l.world, flags, nil, nil); !bytes.Equal(again, losses) {
					t.Errorf("two runs of a lossy job differ:\n%s\nsecond:\n%s", losses, again)
				}
			}
			if l.golden != "" && runtime.GOARCH == "amd64" {
				want, err := os.ReadFile(filepath.Join("testdata", l.golden))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(losses, want) {
					t.Errorf("distributed losses differ from testdata/%s:\n%s\ngolden:\n%s", l.golden, losses, want)
				}
			}
			if l.check != nil {
				l.check(t, out, dir)
			}
		})
	}
}

// trainLocal trains flags in one process and returns its losses file.
func trainLocal(t *testing.T, bin string, flags []string) []byte {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), legTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "jaxpp-train"), append(flags, "-losses-out", "losses.json")...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("in-process run: %v\n%s", err, out)
	}
	return readLosses(t, dir)
}

// trainAcross trains flags across world processes, the first worker also
// given workerFlags, calling check (if any) while they run, and returns the
// losses file, everything the processes printed, and the directory the
// coordinator ran in.
func trainAcross(t *testing.T, bin string, world int, flags, workerFlags []string, check func() error) ([]byte, string, string) {
	t.Helper()
	dir := t.TempDir()
	addr := freeAddr(t)
	ctx, cancel := context.WithTimeout(context.Background(), legTimeout)
	defer cancel()
	procs := make([]*exec.Cmd, world)
	outs := make([]bytes.Buffer, world)
	for i := range procs {
		name, args := "jaxpp-worker", []string{"-coordinator", addr}
		switch i {
		case 0:
			name, args = "jaxpp-train", append([]string{"-distributed", "-coordinator", addr, "-losses-out", "losses.json"}, flags...)
		case 1:
			args = append(args, workerFlags...)
		}
		procs[i] = exec.CommandContext(ctx, filepath.Join(bin, name), args...)
		procs[i].Dir, procs[i].Stdout, procs[i].Stderr = dir, &outs[i], &outs[i]
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	var checkErr error
	if check != nil {
		checkErr = check()
	}
	errs := make([]error, world)
	for i, p := range procs {
		if errs[i] = p.Wait(); i == 0 && errs[i] != nil {
			cancel() // the workers have no one left to train with
		}
	}
	var out strings.Builder
	for i := range outs {
		out.Write(outs[i].Bytes())
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d of %d (0 is the coordinator): %v\n%s", i, world, err, out.String())
		}
	}
	if checkErr != nil {
		t.Fatalf("while training: %v\n%s", checkErr, out.String())
	}
	return readLosses(t, dir), out.String(), dir
}

func readLosses(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "losses.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// optStateShare checks that every rank of a world logs an optimizer-state
// footprint of at most pct% of the replicated one: ~1/world, plus the
// rounding of the larger chunk.
func optStateShare(world int, pct float64) func(*testing.T, string, string) {
	return func(t *testing.T, out, _ string) {
		re := regexp.MustCompile(fmt.Sprintf(`rank (\d+) sharded optimizer state \S+ bytes \(([0-9.]+)%% of replicated, world %d\)`, world))
		ranks := map[string]bool{}
		for _, m := range re.FindAllStringSubmatch(out, -1) {
			ranks[m[1]] = true
			if share, _ := strconv.ParseFloat(m[2], 64); share > pct {
				t.Errorf("rank %s optimizer state is %.1f%% of replicated, want <= %.0f%%", m[1], share, pct)
			}
		}
		if len(ranks) != world {
			t.Errorf("%d of %d ranks logged their optimizer state:\n%s", len(ranks), world, out)
		}
	}
}

// traceCoversRanks checks that the coordinator's merged Chrome trace
// parses and holds spans from every rank.
func traceCoversRanks(world int) func(*testing.T, string, string) {
	return func(t *testing.T, _, dir string) {
		f, err := os.Open(filepath.Join(dir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		events, err := timeline.ReadChromeTrace(f)
		if err != nil {
			t.Fatal(err)
		}
		ranks := map[int]bool{}
		for _, e := range events {
			ranks[e.Pid] = true
		}
		for r := 0; r < world; r++ {
			if !ranks[r] {
				t.Errorf("merged trace has no spans from rank %d (%d spans)", r, len(events))
			}
		}
	}
}

// liveMetrics serves the coordinator's /metrics mid-run and checks that two
// scrapes show jaxpp_step_total advancing for every rank, and that /healthz
// and /debug/cluster answer. One worker serves its local view too, which
// must show its own rank's jaxpp_step_total advancing. The run sleeps 100 ms
// a step, beating every 250 ms, so it lasts under three seconds.
func liveMetrics(world int) func(*testing.T) ([]string, []string, func() error) {
	return func(t *testing.T) ([]string, []string, func() error) {
		addr, workerAddr := freeAddr(t), freeAddr(t)
		flags := []string{"-metrics-addr", addr, "-step-sleep-ms", "100", "-hb-interval", "250ms"}
		return flags, []string{"-metrics-addr", workerAddr}, func() error {
			cluster := make(chan error, 1)
			go func() { cluster <- stepsAdvance("http://"+addr, world, true) }()
			local := stepsAdvance("http://"+workerAddr, 1, false)
			if err := <-cluster; err != nil {
				return err
			}
			if local != nil {
				return fmt.Errorf("worker's local view: %v", local)
			}
			return nil
		}
	}
}

// stepsAdvance scrapes base's /metrics until jaxpp_step_total has advanced
// between two scrapes for each of the ranks it serves, which must number
// ranks. cluster also checks, at the first scrape, that /healthz and
// /debug/cluster answer; a local view must serve one rank other than 0.
func stepsAdvance(base string, ranks int, cluster bool) error {
	var first map[string]int
	deadline := time.Now().Add(legTimeout)
	for ; time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		body, err := httpGet(base + "/metrics")
		if err != nil {
			if first != nil {
				return fmt.Errorf("metrics went away before every rank advanced: %v", err)
			}
			continue // not serving yet
		}
		steps := stepTotals(body)
		if len(steps) < ranks {
			continue
		}
		if len(steps) > ranks {
			return fmt.Errorf("%s/metrics serves ranks %v, want %d", base, steps, ranks)
		}
		if first == nil {
			first = steps
			if !cluster {
				if _, ok := steps["0"]; ok {
					return fmt.Errorf("%s/metrics serves rank 0, not the worker's own", base)
				}
				continue
			}
			if _, err := httpGet(base + "/healthz"); err != nil {
				return err
			}
			snap, err := httpGet(base + "/debug/cluster")
			if err != nil {
				return err
			}
			if !json.Valid([]byte(snap)) {
				return fmt.Errorf("/debug/cluster is not JSON: %s", snap)
			}
			continue
		}
		advanced := true
		for r := range steps {
			advanced = advanced && steps[r] > first[r]
		}
		if advanced {
			return nil
		}
	}
	return fmt.Errorf("%s: jaxpp_step_total did not advance for every rank (first scrape %v)", base, first)
}

// stepTotals reads jaxpp_step_total by rank label.
func stepTotals(metrics string) map[string]int {
	steps := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^jaxpp_step_total\{rank="(\d+)"\} (\d+)$`).FindAllStringSubmatch(metrics, -1) {
		steps[m[1]], _ = strconv.Atoi(m[2])
	}
	return steps
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), err
}
