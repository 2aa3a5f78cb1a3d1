package taskgraph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/autodiff"
	"repro/internal/ir"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/trace"
)

// buildSplit traces an S-stage MLP microbatch grad graph and splits it.
func buildSplit(t *testing.T, stages, width int, commute bool) *stage.Split {
	t.Helper()
	g, err := trace.Trace("mlp", func(b *trace.Builder) []*ir.Value {
		x := b.Input("x", 4, width)
		y := b.Input("y", 4, width)
		var ws []*ir.Value
		for i := 0; i < stages; i++ {
			ws = append(ws, b.Input("w", width, width))
		}
		h := x
		for i, w := range ws {
			h = b.ReLU(b.MatMul(h, w))
			if i+1 < len(ws) {
				h = b.PipelineYield(h)
			}
		}
		return []*ir.Value{b.CrossEntropy(h, y)}
	})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := autodiff.ValueAndGrad(g, g.Inputs[2:])
	if err != nil {
		t.Fatal(err)
	}
	s, err := stage.SplitGraph(gg, stage.Options{CommuteGradAccumulation: commute})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compile(t *testing.T, split *stage.Split, sched *schedule.Schedule, opts Options) *Program {
	t.Helper()
	if len(opts.BatchInputs) == 0 {
		opts.BatchInputs = []int{0, 1}
	}
	p, err := Compile(split, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileStageMismatch(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	if _, err := Compile(split, schedule.GPipe(2, 2), Options{BatchInputs: []int{0, 1}}); err == nil {
		t.Fatal("want stage-count mismatch error")
	}
}

// sendRecvMatched checks every send has exactly one matching recv with the
// same tag on the right peer, and vice versa.
func sendRecvMatched(t *testing.T, p *Program) {
	t.Helper()
	type sr struct{ from, to, tag int }
	sends := map[sr]int{}
	recvs := map[sr]int{}
	for a, list := range p.Actors {
		for _, in := range list {
			switch in.Kind {
			case OpSend:
				sends[sr{a, in.Peer, in.Tag}]++
			case OpRecv:
				recvs[sr{in.Peer, a, in.Tag}]++
			}
		}
	}
	if len(sends) != len(recvs) {
		t.Fatalf("%d sends vs %d recvs", len(sends), len(recvs))
	}
	for k, n := range sends {
		if n != 1 || recvs[k] != 1 {
			t.Fatalf("send/recv %v not uniquely matched (%d/%d)", k, n, recvs[k])
		}
	}
}

func TestSendRecvMatching(t *testing.T) {
	split := buildSplit(t, 4, 4, false)
	for _, sched := range []*schedule.Schedule{
		schedule.GPipe(4, 8),
		schedule.OneFOneB(4, 8),
	} {
		p := compile(t, split, sched, Options{})
		sendRecvMatched(t, p)
	}
}

func TestInterleavedCompile(t *testing.T) {
	split := buildSplit(t, 4, 4, false) // 4 stages on 2 actors, repeat 2
	sched, err := schedule.Interleaved1F1B(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, split, sched, Options{})
	sendRecvMatched(t, p)
	// With circular placement stages 0,2 are on actor 0 and 1,3 on actor 1:
	// every stage transition crosses actors.
	runs := 0
	for _, list := range p.Actors {
		for _, in := range list {
			if in.Kind == OpRun {
				runs++
			}
		}
	}
	// 4 microbatches x 7 segments.
	if runs != 4*7 {
		t.Fatalf("run count %d, want 28", runs)
	}
}

// recvPrecedesUse: every buffer read by an instruction is produced earlier in
// the same actor's list (run output, recv, accum, or driver placement).
func recvPrecedesUse(t *testing.T, p *Program) {
	t.Helper()
	placed := map[BufID]bool{}
	for _, pp := range p.Params {
		if pp != nil {
			placed[pp.Buf] = true
		}
	}
	for _, reps := range p.ParamReplicas {
		for _, r := range reps {
			placed[r.Buf] = true
		}
	}
	for _, pl := range p.Batch {
		for _, b := range pl {
			placed[b.Buf] = true
		}
	}
	for _, list := range p.Actors {
		avail := map[BufID]bool{}
		for _, in := range list {
			check := func(b BufID) {
				if !avail[b] && !placed[b] {
					t.Fatalf("instruction %s reads buffer %d before it exists", in, b)
				}
			}
			switch in.Kind {
			case OpRun:
				for _, b := range in.Ins {
					check(b)
				}
				for _, b := range in.Outs {
					avail[b] = true
				}
			case OpSend:
				check(in.Buf)
			case OpRecv:
				avail[in.Buf] = true
			case OpAccum:
				check(in.Buf)
				avail[in.Dst] = true
			case OpAdd:
				check(in.A)
				check(in.B)
				avail[in.Dst] = true
			case OpDelete:
				delete(avail, in.Buf)
			}
		}
	}
}

func TestDataflowOrdering(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	for _, sched := range []*schedule.Schedule{
		schedule.GPipe(3, 6),
		schedule.OneFOneB(3, 6),
	} {
		p := compile(t, split, sched, Options{})
		recvPrecedesUse(t, p)
	}
}

// noUseAfterDelete: deletion never precedes a read of the same buffer.
func TestNoUseAfterDelete(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	p := compile(t, split, schedule.OneFOneB(3, 6), Options{})
	for a, list := range p.Actors {
		deleted := map[BufID]bool{}
		for _, in := range list {
			reads := func(bs ...BufID) {
				for _, b := range bs {
					if deleted[b] {
						t.Fatalf("actor %d: %s reads deleted buffer %d", a, in, b)
					}
				}
			}
			switch in.Kind {
			case OpRun:
				reads(in.Ins...)
			case OpSend:
				reads(in.Buf)
			case OpAccum:
				reads(in.Buf, in.Dst)
			case OpAdd:
				reads(in.A, in.B)
			case OpDelete:
				deleted[in.Buf] = true
			}
		}
	}
}

func TestDeletionPassFreesTransients(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	with := compile(t, split, schedule.OneFOneB(3, 6), Options{})
	without := compile(t, split, schedule.OneFOneB(3, 6), Options{DisableDeletion: true})
	countDeletes := func(p *Program) int {
		n := 0
		for _, list := range p.Actors {
			for _, in := range list {
				if in.Kind == OpDelete {
					n++
				}
			}
		}
		return n
	}
	if countDeletes(without) != 0 {
		t.Fatal("DisableDeletion still emitted deletes")
	}
	if countDeletes(with) == 0 {
		t.Fatal("deletion pass emitted nothing")
	}
}

// TestAccumLastUseMarked: an accumulate is marked Last exactly when the
// liveness pass deletes its source right behind it — which, for the MLP, is
// every accumulate — and never when the pass is off.
func TestAccumLastUseMarked(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	for _, disable := range []bool{false, true} {
		p := compile(t, split, schedule.OneFOneB(3, 6), Options{DisableDeletion: disable})
		accums := 0
		for a, list := range p.Actors {
			for i, in := range list {
				if in.Kind != OpAccum {
					continue
				}
				accums++
				deleted := false
				for _, next := range list[i+1:] {
					if next.Kind != OpDelete {
						break
					}
					deleted = deleted || next.Buf == in.Buf
				}
				if in.Last != deleted || in.Last == disable {
					t.Errorf("actor %d, deletion off=%v: %s, source deleted behind it: %v", a, disable, in, deleted)
				}
			}
		}
		if accums != 3*6 {
			t.Fatalf("%d accumulates, want one per stage per microbatch", accums)
		}
	}
}

func TestGradAndLossPlacements(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	p := compile(t, split, schedule.OneFOneB(3, 6), Options{})
	if len(p.Grads) != 3 {
		t.Fatalf("grads %d", len(p.Grads))
	}
	// Gradient for weight i must live on the actor owning stage i.
	for gi, g := range p.Grads {
		if g.Actor != p.Schedule.StageActor[gi] {
			t.Fatalf("grad %d on actor %d, want %d", gi, g.Actor, p.Schedule.StageActor[gi])
		}
	}
	// Losses live on the last stage's actor.
	last := p.Schedule.StageActor[p.Schedule.NumStages-1]
	for mb, l := range p.Losses {
		if l.Actor != last {
			t.Fatalf("loss mb %d on actor %d, want %d", mb, l.Actor, last)
		}
	}
}

func TestSingleRPCFusion(t *testing.T) {
	// §4.4: the entire step is one instruction list per actor — nothing in
	// the program requires mid-step driver involvement. We assert the
	// program covers all microbatches and segments per actor contiguously.
	split := buildSplit(t, 2, 4, false)
	p := compile(t, split, schedule.OneFOneB(2, 4), Options{})
	if len(p.Actors) != 2 {
		t.Fatalf("actors %d", len(p.Actors))
	}
	for a, list := range p.Actors {
		if len(list) == 0 {
			t.Fatalf("actor %d has empty program", a)
		}
	}
}

// Property: compilation succeeds and stays structurally sound across a sweep
// of stage counts, schedules, and microbatch counts.
func TestCompileProperty(t *testing.T) {
	f := func(seed uint64) bool {
		stages := 2 + int(seed%3)
		mbs := stages * (1 + int((seed/3)%4))
		split := buildSplit(t, stages, 4, seed%2 == 0)
		var sched *schedule.Schedule
		if seed%3 == 0 {
			sched = schedule.GPipe(stages, mbs)
		} else {
			sched = schedule.OneFOneB(stages, mbs)
		}
		p, err := Compile(split, sched, Options{BatchInputs: []int{0, 1}})
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		sendRecvMatched(t, p)
		recvPrecedesUse(t, p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCountsMatchSchedule(t *testing.T) {
	split := buildSplit(t, 3, 4, false)
	mbs := 6
	p := compile(t, split, schedule.OneFOneB(3, mbs), Options{})
	// Segments: 0,1 fwd; 2 fused; 3,4 bwd. Each runs once per microbatch.
	counts := map[int]int{}
	for _, list := range p.Actors {
		for _, in := range list {
			if in.Kind == OpRun {
				counts[in.Seg]++
			}
		}
	}
	for seg := 0; seg < 5; seg++ {
		if counts[seg] != mbs {
			t.Fatalf("segment %d ran %d times, want %d", seg, counts[seg], mbs)
		}
	}
}

// TestPrologueHoistsWeightTransposes: at more than 16 rows a step, every
// actor whose segments read a weight's transpose — each but stage 0's, whose
// backward owes no dx — runs one prologue a step that transposes it, as its
// first run and before its first receive; every microbatch's backward reads
// that one buffer, and the liveness pass deletes it behind the last reader.
// dp2x2's 2 microbatches of 4 rows (8 a step) compile no prologue.
func TestPrologueHoistsWeightTransposes(t *testing.T) {
	for _, c := range []struct {
		name        string
		stages, mbs int
		sched       func(stages, mbs int) *schedule.Schedule
		hoisters    int
	}{
		{"1f1b, 32 rows a step", 4, 8, schedule.OneFOneB, 3},
		{"gpipe, 32 rows a step", 4, 8, schedule.GPipe, 3},
		{"1f1b, 20 rows a step", 3, 5, schedule.OneFOneB, 2},
		{"1f1b, 8 rows a step", 2, 2, schedule.OneFOneB, 0},
		{"1f1b, 16 rows a step", 2, 4, schedule.OneFOneB, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			split := buildSplit(t, c.stages, 8, false) // 4 rows a microbatch
			p := compile(t, split, c.sched(c.stages, c.mbs), Options{})
			if c.hoisters == 0 {
				if p.Split != split {
					t.Fatalf("compiled prologues at %d rows a step", 4*c.mbs)
				}
				return
			}
			hoisters := 0
			for a, list := range p.Actors {
				firstRun := slices.IndexFunc(list, func(in Instr) bool { return in.Kind == OpRun })
				firstRecv := slices.IndexFunc(list, func(in Instr) bool { return in.Kind == OpRecv })
				run := list[firstRun]
				if seg := p.Split.Segments[run.Seg]; seg.Kind != stage.Prologue {
					if a != 0 {
						t.Errorf("actor %d runs %s segment %d first, not a prologue", a, seg.Kind, seg.Index)
					}
					continue
				}
				hoisters++
				if run.MB != -1 || len(run.Outs) != 1 || firstRecv < firstRun {
					t.Errorf("actor %d: prologue %v at pc %d, first receive at pc %d", a, run, firstRun, firstRecv)
				}
				wt := run.Outs[0]
				readers, lastRead, deleted := 0, -1, -1
				for pc, in := range list {
					switch {
					case in.Kind == OpRun && slices.Contains(in.Ins, wt):
						readers, lastRead = readers+1, pc
					case in.Kind == OpDelete && in.Buf == wt:
						deleted = pc
					}
				}
				behind := deleted > lastRead && !slices.ContainsFunc(list[lastRead+1:deleted], func(in Instr) bool { return in.Kind != OpDelete })
				if readers != c.mbs || !behind {
					t.Errorf("actor %d: Wᵀ read by %d runs (want %d), last at pc %d, deleted at pc %d", a, readers, c.mbs, lastRead, deleted)
				}
			}
			if hoisters != c.hoisters {
				t.Errorf("%d actors run a prologue, want %d", hoisters, c.hoisters)
			}
			sendRecvMatched(t, p)
			recvPrecedesUse(t, p)
		})
	}
}
