package distrun

import (
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// TestMain runs the package — Run against RunLocal bit for bit, the stage
// epilogue against the replicated update — with recycled storage NaN-filled,
// so a tensor read after its recycle turns those comparisons red.
func TestMain(m *testing.M) {
	transporttest.PoisonRecycled()
	os.Exit(m.Run())
}

// launchWorld bootstraps spec.World() sessions over real localhost TCP
// (control and data planes) with one goroutine per "process" and runs the
// job on each, returning rank 0's report.
func launchWorld(t *testing.T, spec JobSpec) *Report {
	t.Helper()
	rep, _ := launchWorldCounting(t, spec)
	return rep
}

// sendCount is one rank's dist.Transport.SendCount() when its Run returned.
type sendCount struct {
	frames int
	bytes  int64
}

// launchWorldCounting is launchWorld that also returns what every rank's data
// plane had sent, by rank, when its job ended.
func launchWorldCounting(t *testing.T, spec JobSpec) (*Report, []sendCount) {
	t.Helper()
	return launchWorldRunning(t, spec, Run)
}

// launchWorldRunning is launchWorldCounting with the function every rank runs
// its session through in Run's place (a rank-local override goes here).
func launchWorldRunning(t *testing.T, spec JobSpec, run func(*dist.Session, JobSpec) (*Report, error)) (*Report, []sendCount) {
	t.Helper()
	world := spec.World()
	opts := dist.SessionOptions{
		RendezvousTimeout: 30 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		Transport:         dist.Options{RecvTimeout: 30 * time.Second},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reports := make([]*Report, world)
	sent := make([]sendCount, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := dist.Coordinate(addr, world, spec.Marshal(), opts)
		if err != nil {
			errs[0] = err
			return
		}
		defer sess.Close()
		reports[0], errs[0] = run(sess, spec)
		sent[0].frames, sent[0].bytes = sess.Transport.SendCount()
	}()
	for w := 1; w < world; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sess *dist.Session
			var err error
			for i := 0; i < 150; i++ {
				sess, err = dist.Join(addr, opts)
				if err == nil || !strings.Contains(err.Error(), "connect") {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				errs[w] = err
				return
			}
			defer sess.Close()
			got, err := UnmarshalJobSpec(sess.Job)
			if err != nil {
				errs[w] = err
				return
			}
			reports[sess.Rank], errs[sess.Rank] = run(sess, got)
			sent[sess.Rank].frames, sent[sess.Rank].bytes = sess.Transport.SendCount()
		}(w)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return reports[0], sent
}

// requireBitIdentical compares two reports' loss trajectories and final
// parameters bit for bit — the acceptance bar for the multi-process
// runtime: real sockets and binary frames must not perturb a single ULP. The
// reference must also be finite: a NaN both runs agree on is a defect they
// share, such as a read of recycled storage, which TestMain NaN-fills.
func requireBitIdentical(t *testing.T, got, want *Report) {
	t.Helper()
	requireFinite(t, want)
	if len(got.MBLosses) != len(want.MBLosses) {
		t.Fatalf("steps: %d vs %d", len(got.MBLosses), len(want.MBLosses))
	}
	for s := range want.MBLosses {
		for mb := range want.MBLosses[s] {
			g, w := got.MBLosses[s][mb], want.MBLosses[s][mb]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d mb %d: loss %v (bits %x) != reference %v (bits %x)",
					s, mb, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	if len(got.FinalParams) != len(want.FinalParams) {
		t.Fatalf("final params: %d vs %d", len(got.FinalParams), len(want.FinalParams))
	}
	for i := range want.FinalParams {
		gd, wd := got.FinalParams[i].Data(), want.FinalParams[i].Data()
		for j := range wd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatalf("param %d elem %d: %v != %v", i, j, gd[j], wd[j])
			}
		}
	}
	// Sanity: the job actually trained (loss decreased).
	first, last := want.StepLosses[0], want.StepLosses[len(want.StepLosses)-1]
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// requireFinite fails the test on a NaN or an infinity among a report's
// losses and final parameters.
func requireFinite(t *testing.T, rep *Report) {
	t.Helper()
	for s, losses := range rep.MBLosses {
		for mb, l := range losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("step %d mb %d: loss %v", s, mb, l)
			}
		}
	}
	for i, p := range rep.FinalParams {
		for j, v := range p.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("param %d elem %d: %v", i, j, v)
			}
		}
	}
}

// TestPipelineLossesBitForBitAcross4Ranks trains a 4-stage 1F1B pipeline
// across 4 TCP-connected ranks and requires per-step losses and final
// parameters bit-identical to the in-process reference.
func TestPipelineLossesBitForBitAcross4Ranks(t *testing.T) {
	spec := JobSpec{
		Stages: 4, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 6, LR: 0.5, Schedule: "1f1b", Seed: 1,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := launchWorld(t, spec)
	requireBitIdentical(t, got, local)
}

// TestDPxPPLossesBitForBitAcross4Ranks trains the 2×2 DP×PP configuration
// (2 replicas × 2 stages, end-of-step collective gradient sync over the
// wire) across 4 ranks with the same bit-for-bit bar.
func TestDPxPPLossesBitForBitAcross4Ranks(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 6, LR: 0.5, Schedule: "1f1b", DataParallel: 2, Seed: 3,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := launchWorld(t, spec)
	requireBitIdentical(t, got, local)
}

// TestRunRejectsWorldMismatch pins the guard between a session's size and
// the job's actor count.
func TestRunRejectsWorldMismatch(t *testing.T) {
	spec := JobSpec{Stages: 4, NumMB: 2, MBRows: 2, Width: 8, Steps: 1, LR: 0.1, Seed: 1}
	sess := &dist.Session{Rank: 0, World: 2}
	if _, err := Run(sess, spec); err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("world mismatch accepted: %v", err)
	}
}

// TestWorkerDeathSurfacesPoisonNotHang kills one rank mid-job (its sockets
// slam shut with no goodbye, as SIGKILL would) and requires the coordinator
// to fail with a transport error well before the recv timeout would expire.
func TestWorkerDeathSurfacesPoisonNotHang(t *testing.T) {
	spec := JobSpec{
		Stages: 3, NumMB: 3, MBRows: 2, Width: 8,
		Steps: 100000, LR: 0.1, Schedule: "1f1b", Seed: 1, StepSleepMs: 1,
	}
	world := spec.World()
	opts := dist.SessionOptions{
		RendezvousTimeout: 30 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  1 * time.Second,
		Transport:         dist.Options{RecvTimeout: 120 * time.Second},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	type outcome struct {
		rank int
		err  error
	}
	results := make(chan outcome, world)
	sessions := make([]*dist.Session, world)
	var mu sync.Mutex
	launch := func(rank int, mk func() (*dist.Session, error)) {
		sess, err := mk()
		if err != nil {
			results <- outcome{rank, fmt.Errorf("bootstrap: %w", err)}
			return
		}
		mu.Lock()
		sessions[sess.Rank] = sess
		mu.Unlock()
		_, err = Run(sess, spec)
		results <- outcome{sess.Rank, err}
	}
	go launch(0, func() (*dist.Session, error) { return dist.Coordinate(addr, world, spec.Marshal(), opts) })
	for w := 1; w < world; w++ {
		go launch(w, func() (*dist.Session, error) {
			var sess *dist.Session
			var err error
			for i := 0; i < 150; i++ {
				sess, err = dist.Join(addr, opts)
				if err == nil || !strings.Contains(err.Error(), "connect") {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			return sess, err
		})
	}

	// Let the job run a few steps, then kill the last rank abruptly.
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	victim := sessions[world-1]
	mu.Unlock()
	if victim == nil {
		t.Fatal("victim rank never bootstrapped")
	}
	victim.Abort() // SIGKILL-faithful: no goodbyes on either plane

	// Every surviving rank must fail out promptly. The victim itself is
	// "dead": its goroutine may stay blocked until its long recv timeout,
	// exactly like a killed process — we do not wait for it.
	deadline := time.After(60 * time.Second)
	sawCoordinatorError := false
	for done := 0; done < world-1; done++ {
		select {
		case o := <-results:
			if o.rank == world-1 {
				done-- // the victim checked out early; still need the survivors
				continue
			}
			if o.err == nil {
				t.Fatalf("rank %d finished cleanly despite a dead worker", o.rank)
			}
			if o.rank == 0 {
				sawCoordinatorError = true
				t.Logf("coordinator error (expected): %v", o.err)
			}
		case <-deadline:
			t.Fatalf("surviving ranks still hung %v after worker death (transport not poisoned); %d exited", 60*time.Second, done)
		}
	}
	if !sawCoordinatorError {
		t.Fatal("coordinator never reported an error")
	}
	mu.Lock()
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
	mu.Unlock()
}

// slowGather delays every receive in the epilogue's gather-half tag window.
type slowGather struct {
	transport.Transport
	delay time.Duration
}

func (s slowGather) Recv(to, from, tag int) (*tensor.Tensor, error) {
	if lo, hi := collective.GroupTagRange(paramGroupID); tag >= lo && tag < hi {
		time.Sleep(s.delay)
	}
	return s.Transport.Recv(to, from, tag)
}

// TestRankZeroFinishesFirst holds rank 2 of a 2×2 job — replica 1 of stage 0,
// which hands rank 0 nothing at job end — 300 ms before every gather-half
// receive, so rank 0 has all it reports while rank 2 is still in its last
// gather pass. A job ends with its last exchange: rank 0 must return well
// before rank 2 and close its session, and rank 2 must still receive what rank
// 0 sent, finishing cleanly with the report bit-identical to RunLocal's.
func TestRankZeroFinishesFirst(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 3, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 9,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make([]time.Time, spec.World())
	got, _ := launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
		var tr transport.Transport = sess.Transport
		if sess.Rank == 2 {
			tr = slowGather{tr, 300 * time.Millisecond}
		}
		rep, err := runOver(sess, tr, spec, []int{sess.Rank})
		done[sess.Rank] = time.Now()
		return rep, err
	})
	requireBitIdentical(t, got, local)
	if lead := done[2].Sub(done[0]); lead < 150*time.Millisecond {
		t.Fatalf("rank 0 returned %v before rank 2, want >= 150ms: it waited for a rank that owes it nothing", lead)
	}
	t.Logf("rank 0 returned %v before rank 2", done[2].Sub(done[0]))
}

// TestJobHonoursTheLendingRule runs a 2×2 DP×PP job with every rank's data
// plane watched by a LendChecker: across the actor's sends, the reduce half,
// the update, the recycling of the gradients and the gather half, nothing a
// ring pass has lent to the transport is written or recycled before the pass
// has settled, and every loan is settled when the job ends. Width 64 puts
// every gradient chunk past the size below which the wire copies instead of
// lending (4 KiB), so they really are lent; the losses and parameters stay
// RunLocal's bit for bit.
func TestJobHonoursTheLendingRule(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 4, Width: 64,
		Steps: 4, LR: 0.05, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 5,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := transporttest.NewLendChecker(t)
	got, _ := launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
		return runOver(sess, check.Wrap(sess.Transport), spec, []int{sess.Rank})
	})
	requireBitIdentical(t, got, local)
	if check.Lends() == 0 {
		t.Fatal("the job lent nothing")
	}
}

// recvLog records every receive of the rank whose transport it wraps, in
// order: peer, tag and elements.
type recvLog struct {
	transport.Transport
	mu   sync.Mutex
	recv []recvd
}

type recvd struct{ from, tag, elems int }

func (l *recvLog) Recv(to, from, tag int) (*tensor.Tensor, error) {
	t, err := l.Transport.Recv(to, from, tag)
	if err == nil {
		l.mu.Lock()
		l.recv = append(l.recv, recvd{from, tag, t.Size()})
		l.mu.Unlock()
	}
	return t, err
}

// TestCollectionIsOneMessagePerResult pins what rank 0 receives after its
// last step: one message per parameter it does not host, from that stage's
// replica-0 rank, then one loss history per other loss-owning rank, under
// the tags of finalGroupID's window counted per sender — exactly that, in
// that order, and nothing else once the first of them has arrived. Their
// payloads are the parameters' and the histories' elements, 8 bytes each.
func TestCollectionIsOneMessagePerResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"dp2x2", JobSpec{Stages: 2, NumMB: 2, MBRows: 4, Width: 16, Steps: 3, LR: 0.05, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 4}},
		{"pp4", JobSpec{Stages: 4, NumMB: 4, MBRows: 4, Width: 16, Steps: 3, LR: 0.05, Schedule: "1f1b", Seed: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, pp := tc.spec, tc.spec.Stages
			local, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			log := &recvLog{}
			got, _ := launchWorldRunning(t, spec, func(sess *dist.Session, spec JobSpec) (*Report, error) {
				tr := sess.Transport
				if sess.Rank != 0 {
					return runOver(sess, tr, spec, []int{sess.Rank})
				}
				log.Transport = tr
				return runOver(sess, log, spec, []int{sess.Rank})
			})
			requireBitIdentical(t, got, local)

			// The model has one width×width parameter per stage; a loss
			// history is a step's microbatches for every step.
			lo, hi := collective.GroupTagRange(finalGroupID)
			var want []recvd
			for s := 1; s < pp; s++ {
				want = append(want, recvd{s, lo, spec.Width * spec.Width})
			}
			for r := pp - 1; r < spec.World(); r += pp {
				tag := lo
				if r < pp {
					tag++ // after its stage's parameter
				}
				want = append(want, recvd{r, tag, spec.Steps * spec.NumMB})
			}
			first := slices.IndexFunc(log.recv, func(m recvd) bool { return m.tag >= lo && m.tag < hi })
			if first < 0 {
				t.Fatal("rank 0 received nothing in the collection's window")
			}
			tail := log.recv[first:]
			if !slices.Equal(tail, want) {
				t.Fatalf("rank 0 received %v after its last step, want %v", tail, want)
			}
			bytes, wantBytes := 0, 8*((pp-1)*spec.Width*spec.Width+spec.Replicas()*spec.Steps*spec.NumMB)
			for _, m := range tail {
				bytes += 8 * m.elems
			}
			if bytes != wantBytes {
				t.Fatalf("collection payload %d bytes, want %d", bytes, wantBytes)
			}
			t.Logf("%d messages, %d payload bytes", len(tail), bytes)
		})
	}
}
