package distrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	jaxpp "repro"
	"repro/internal/collective"
)

// TestShardPlanOwnerMajorLayout pins the owner-major flat layout: gradient
// tensors sort by (producing actor, gradient index), offsets are exact prefix
// sums, gradOff inverts the permutation, and the balanced partition covers
// [0, total) contiguously.
func TestShardPlanOwnerMajorLayout(t *testing.T) {
	owners := []int{1, 0, 2, 0}
	sizes := []int{3, 4, 2, 5}
	p, err := newShardPlan(owners, sizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{1, 3, 0, 2} // owner 0: g1,g3; owner 1: g0; owner 2: g2
	wantOff := []int{0, 4, 9, 12, 14}
	for k, gi := range wantOrder {
		if p.order[k] != gi {
			t.Fatalf("order %v, want %v", p.order, wantOrder)
		}
		if p.off[k] != wantOff[k] {
			t.Fatalf("off %v, want %v", p.off, wantOff)
		}
		if p.gradOff[gi] != wantOff[k] {
			t.Fatalf("gradOff[%d] = %d, want %d", gi, p.gradOff[gi], wantOff[k])
		}
	}
	if p.total != 14 {
		t.Fatalf("total %d, want 14", p.total)
	}
	wantCounts := collective.EvenCounts(14, 3)
	sum, start := 0, 0
	for r := range p.counts {
		if p.counts[r] != wantCounts[r] {
			t.Fatalf("counts %v, want %v", p.counts, wantCounts)
		}
		if p.starts[r] != start {
			t.Fatalf("starts %v: rank %d at %d, want %d", p.starts, r, p.starts[r], start)
		}
		start += p.counts[r]
		sum += p.counts[r]
	}
	if sum != p.total {
		t.Fatalf("partition covers %d of %d", sum, p.total)
	}

	// The layout must be world-independent: only counts/starts change.
	p2, err := newShardPlan(owners, sizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range p.order {
		if p2.order[k] != p.order[k] {
			t.Fatalf("order depends on world: %v vs %v", p2.order, p.order)
		}
	}
}

// TestShardedStateMemoryIsOneOverWorld pins the ZeRO memory claim at the unit
// level: the shard-local velocity buffer holds at most ceil(total/world)
// elements — the balanced 1/world slice — versus a replicated full total.
func TestShardedStateMemoryIsOneOverWorld(t *testing.T) {
	owners := []int{0, 1, 2, 3}
	sizes := []int{100, 100, 100, 100}
	for _, world := range []int{2, 3, 4, 7} {
		p, err := newShardPlan(owners, sizes, world)
		if err != nil {
			t.Fatal(err)
		}
		ceil := (p.total + world - 1) / world
		for r := 0; r < world; r++ {
			s := newShardedState(JobSpec{Momentum: 0.9}, p, r)
			if got := s.vel.Size(); got > ceil {
				t.Fatalf("world %d rank %d: velocity shard %d elems, want <= ceil(%d/%d)=%d", world, r, got, p.total, world, ceil)
			}
			s.release()
		}
	}
}

// TestShardedMatchesReplicated is the epilogue's acceptance test: the
// distributed exchange (ReduceScatterV → shard-local update → AllGatherV)
// must produce per-step losses AND post-step parameter bits identical to the
// dense in-process reference, for plain SGD and momentum, across NPOT and
// power-of-two worlds over real TCP ranks.
func TestShardedMatchesReplicated(t *testing.T) {
	configs := []struct {
		name   string
		stages int
		dp     int
	}{
		{"pp2", 2, 0},
		{"pp3", 3, 0},
		{"dp2xpp2", 2, 2},
		{"dp2xpp4", 4, 2},
	}
	for _, cfg := range configs {
		for _, mu := range []float64{0, 0.9} {
			name := fmt.Sprintf("%s/momentum=%v", cfg.name, mu)
			t.Run(name, func(t *testing.T) {
				spec := JobSpec{
					Stages: cfg.stages, NumMB: 4, MBRows: 4, Width: 16,
					Steps: 5, LR: 0.5, Momentum: mu, Schedule: "1f1b",
					DataParallel: cfg.dp, Seed: 21,
				}
				local, err := RunLocal(spec)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, launchWorld(t, spec), local)
			})
		}
	}
}

// reportBytes serializes everything a Report carries about the run's math —
// resume point, every loss, every final parameter — bit for bit.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put(int64(rep.Rank))
	put(int64(rep.World))
	put(int64(rep.StartStep))
	for _, mb := range rep.MBLosses {
		put(mb)
	}
	put(rep.StepLosses)
	for _, p := range rep.FinalParams {
		put(p.Data())
	}
	return buf.Bytes()
}

// TestShardedPayloadFieldHasNoEffect pins that JobSpec.Sharded is accepted
// and ignored: rendezvous payloads that differ only in an explicit
// "sharded":false / "sharded":true decode and run to byte-identical Reports.
func TestShardedPayloadFieldHasNoEffect(t *testing.T) {
	base := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 4, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", DataParallel: 2, Seed: 9,
	}
	var reps [][]byte
	for _, v := range []bool{false, true} {
		payload := strings.Replace(string(base.Marshal()), "{", fmt.Sprintf(`{"sharded":%v,`, v), 1)
		spec, err := UnmarshalJobSpec([]byte(payload))
		if err != nil {
			t.Fatalf("payload %s: %v", payload, err)
		}
		reps = append(reps, reportBytes(t, launchWorld(t, spec)))
	}
	if !bytes.Equal(reps[0], reps[1]) {
		t.Fatal(`"sharded":true changed the run`)
	}
}

// TestExchangeRejectsUnownedGradient pins the pack-time guard: a gradient the
// rank's actor does not produce lies outside its contributed range, where the
// sparse ReduceScatterV would never ship it. exchange must fail before any
// collective runs (the communicators are nil: reaching one would panic) —
// not hang, and not silently drop the gradient from the sum.
func TestExchangeRejectsUnownedGradient(t *testing.T) {
	p, err := newShardPlan([]int{0, 1}, []int{4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := newShardedState(JobSpec{}, p, 0)
	defer s.release()
	res := &jaxpp.ActorResults{GradIdx: []int{1}, Grads: []*jaxpp.Tensor{jaxpp.NewTensor(4)}}
	err = s.exchange(nil, nil, JobSpec{LR: 0.1}, res, nil)
	if err == nil || !strings.Contains(err.Error(), "gradient 1") {
		t.Fatalf("exchange accepted gradient 1 on rank 0 (owner is actor 1): %v", err)
	}
}

// copyCkptDir gives a resumed leg its own copy of a checkpoint directory:
// every resumed run writes (and prunes) checkpoints of its own.
func copyCkptDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardedCheckpointRestoresAcrossWorlds is the checkpoint-format
// acceptance test, in both directions between the two writers. A world-4
// distributed momentum run commits an owner-major checkpoint and RunLocal
// (world 1) commits the dense per-tensor layout of the same state; each is
// then restored by a world-3 distributed job (re-deriving owner tables and
// re-slicing the velocity vector for the new world) and by RunLocal at the
// same data-parallel width. All four resumed runs must agree bit for bit —
// the owner-major flat vector pivots every (layout, world) pair, and the
// retained dense reader stays covered.
func TestShardedCheckpointRestoresAcrossWorlds(t *testing.T) {
	base := JobSpec{
		Stages: 1, DataParallel: 4, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.1, Momentum: 0.9, Schedule: "1f1b", Seed: 7,
		CkptEvery: 5,
	}
	leg1 := base
	leg1.Steps = 7 // "crash" after step 7; the committed checkpoint is step 5
	ownerMajor, dense := leg1, leg1
	ownerMajor.CkptDir, dense.CkptDir = t.TempDir(), t.TempDir()
	if rep := launchWorld(t, ownerMajor); rep.StartStep != 0 {
		t.Fatalf("fresh run claims resume from %d", rep.StartStep)
	}
	if _, err := RunLocal(dense); err != nil {
		t.Fatal(err)
	}

	var want *Report
	for _, src := range []struct{ layout, dir string }{
		{"owner-major world 4", ownerMajor.CkptDir},
		{"dense world 1", dense.CkptDir},
	} {
		spec := base
		spec.DataParallel = 3 // 4 replicas wrote it, 3 resume
		spec.CkptDir = copyCkptDir(t, src.dir)
		local, err := RunLocal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.CkptDir = copyCkptDir(t, src.dir)
		distributed := launchWorld(t, spec)
		for _, rep := range []*Report{local, distributed} {
			if rep.StartStep != 5 {
				t.Fatalf("%s checkpoint: world %d resumed at %d, want 5", src.layout, rep.World, rep.StartStep)
			}
			if want == nil {
				want = rep
			}
			requireBitIdentical(t, rep, want)
		}
	}
}

// TestResumesParentDenseDistributedCheckpoint is the compatibility guard for
// checkpoints older builds left on disk: testdata/dense-world2 was written by
// the last commit that had a dense distributed epilogue (world 2, per-tensor
// velocities round-robin over two shard files; Stages 2, NumMB 2, MBRows 2,
// Width 4, LR 0.5, Momentum 0.9, 1f1b, Seed 5, CkptEvery 2, stopped after
// step 3). Run must resume from it bit-identically to RunLocal resuming from
// the same directory.
func TestResumesParentDenseDistributedCheckpoint(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 2, MBRows: 2, Width: 4,
		Steps: 10, LR: 0.5, Momentum: 0.9, Schedule: "1f1b", Seed: 5,
		CkptEvery: 2,
	}
	spec.CkptDir = copyCkptDir(t, "testdata/dense-world2")
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CkptDir = copyCkptDir(t, "testdata/dense-world2")
	got := launchWorld(t, spec)
	if local.StartStep != 2 || got.StartStep != 2 {
		t.Fatalf("resumed at step %d (local) / %d (distributed), want 2", local.StartStep, got.StartStep)
	}
	requireBitIdentical(t, got, local)
}
