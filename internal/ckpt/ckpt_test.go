package ckpt

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// testState builds a deterministic entry list with awkward values a sloppy
// codec would mangle: negative zero, denormals, NaN payloads survive only a
// bit-exact round trip.
func testState(entries, elems int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, entries)
	for e := range out {
		t := tensor.New(elems)
		d := t.Data()
		for i := range d {
			switch i % 4 {
			case 0:
				d[i] = float64(e*1000+i) * 1.25
			case 1:
				d[i] = math.Copysign(0, -1)
			case 2:
				d[i] = 5e-324 // smallest denormal
			default:
				d[i] = -float64(i) / 3
			}
		}
		out[e] = t
	}
	return out
}

// writeWorld writes one complete committed checkpoint as a world of the given
// size would: every rank's shard, then the manifest.
func writeWorld(t *testing.T, dir string, step, world int, entries []*tensor.Tensor) {
	t.Helper()
	for r := 0; r < world; r++ {
		if err := WriteShard(dir, step, r, entries, Owned(r, world, len(entries))); err != nil {
			t.Fatalf("shard %d: %v", r, err)
		}
	}
	m := NewManifest(step, world, 2, 16, len(entries), 0)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
}

func requireBitEqual(t *testing.T, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for e := range want {
		gd, wd := got[e].Data(), want[e].Data()
		if len(gd) != len(wd) {
			t.Fatalf("entry %d: %d elems, want %d", e, len(gd), len(wd))
		}
		for i := range wd {
			if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
				t.Fatalf("entry %d elem %d: %x != %x", e, i, math.Float64bits(gd[i]), math.Float64bits(wd[i]))
			}
		}
	}
}

// TestOwnershipPartition pins the round-robin map: every entry has exactly
// one owner, and the per-rank Owned lists partition the entry range.
func TestOwnershipPartition(t *testing.T) {
	const world, entries = 3, 10
	seen := make([]int, entries)
	for r := 0; r < world; r++ {
		for _, e := range Owned(r, world, entries) {
			if OwnerOf(e, world) != r {
				t.Fatalf("entry %d owned by rank %d but OwnerOf says %d", e, r, OwnerOf(e, world))
			}
			seen[e]++
		}
	}
	for e, n := range seen {
		if n != 1 {
			t.Fatalf("entry %d covered %d times", e, n)
		}
	}
}

// TestShardedRoundTripBitIdentical is the core property: a checkpoint written
// rank-sharded by a world of 3 restores bit-identical, whatever process reads
// it back.
func TestShardedRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	state := testState(7, 12)
	writeWorld(t, dir, 42, 3, state)

	m, got, skipped, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v on a clean restore", skipped)
	}
	if m == nil || m.Step != 42 || m.World != 3 || m.Entries != 7 {
		t.Fatalf("manifest %+v", m)
	}
	requireBitEqual(t, got, state)
	for _, g := range got {
		tensor.Recycle(g)
	}
}

// TestRestoreDetectsCorruptionAndFallsBack flips one payload byte in the
// newest checkpoint: the CRC trailer must catch it, and Restore must fall
// back to the older consistent step instead of returning damaged state.
func TestRestoreDetectsCorruptionAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	old := testState(5, 8)
	writeWorld(t, dir, 10, 2, old)
	newer := testState(5, 8)
	newer[0].Data()[0] = 999 // make the two steps distinguishable
	writeWorld(t, dir, 20, 2, newer)

	shard := filepath.Join(StepDir(dir, 20), ShardFile(1))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip a bit mid-file (header, dims, or payload)
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m, got, skipped, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Step != 10 {
		t.Fatalf("restored step %v, want fallback to 10", m)
	}
	if len(skipped) != 1 || skipped[0] != 20 {
		t.Fatalf("skipped %v, want [20]", skipped)
	}
	requireBitEqual(t, got, old)
	for _, g := range got {
		tensor.Recycle(g)
	}
}

// TestRestoreSkipsUncommitted: a step directory with shards but no manifest
// (the writer died mid-checkpoint) is invisible to recovery.
func TestRestoreSkipsUncommitted(t *testing.T) {
	dir := t.TempDir()
	committed := testState(4, 6)
	writeWorld(t, dir, 5, 2, committed)
	torn := testState(4, 6)
	// Newer step: every shard written, manifest never committed.
	for r := 0; r < 2; r++ {
		if err := WriteShard(dir, 9, r, torn, Owned(r, 2, len(torn))); err != nil {
			t.Fatal(err)
		}
	}

	m, got, skipped, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Step != 5 {
		t.Fatalf("restored %v, want committed step 5", m)
	}
	if len(skipped) != 1 || skipped[0] != 9 {
		t.Fatalf("skipped %v, want [9]", skipped)
	}
	requireBitEqual(t, got, committed)
	for _, g := range got {
		tensor.Recycle(g)
	}
}

// TestRestoreEmptyAndAllCorrupt: no directory and no usable checkpoint both
// mean "start fresh", not an error.
func TestRestoreEmptyAndAllCorrupt(t *testing.T) {
	m, got, skipped, err := Restore(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || m != nil || got != nil || len(skipped) != 0 {
		t.Fatalf("empty restore: %v %v %v %v", m, got, skipped, err)
	}

	dir := t.TempDir()
	writeWorld(t, dir, 3, 1, testState(2, 4))
	if err := os.Remove(filepath.Join(StepDir(dir, 3), ShardFile(0))); err != nil {
		t.Fatal(err)
	}
	m, got, skipped, err = Restore(dir)
	if err != nil || m != nil || got != nil {
		t.Fatalf("all-corrupt restore: %v %v %v", m, got, err)
	}
	if len(skipped) != 1 || skipped[0] != 3 {
		t.Fatalf("skipped %v, want [3]", skipped)
	}
}

// TestManifestCompatibility pins what restores across worlds: a different
// world size is fine (elastic resume), a different model shape or a
// missing/extra optimizer state is not.
func TestManifestCompatibility(t *testing.T) {
	m := NewManifest(7, 4, 2, 16, 3, 0.9)
	if err := m.Compatible(2, 16, 3, 0.5); err != nil {
		t.Fatalf("momentum coefficient change rejected: %v", err)
	}
	if err := m.Compatible(2, 16, 3, 0); err == nil {
		t.Fatal("momentum->plain accepted; velocity entries would be orphaned")
	}
	if err := m.Compatible(3, 16, 3, 0.9); err == nil {
		t.Fatal("stage mismatch accepted")
	}
	if err := m.Compatible(2, 32, 3, 0.9); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if m.Entries != 6 {
		t.Fatalf("momentum manifest has %d entries for 3 params, want 6", m.Entries)
	}
}

// TestPruneKeepsFallbackAndInFlight: prune retains the newest keep committed
// checkpoints plus any newer uncommitted (in-flight) step directory.
func TestPruneKeepsFallbackAndInFlight(t *testing.T) {
	dir := t.TempDir()
	state := testState(2, 4)
	for _, step := range []int{10, 20, 30} {
		writeWorld(t, dir, step, 1, state)
	}
	// In-flight newest step: shard only.
	if err := WriteShard(dir, 40, 0, state, Owned(0, 1, len(state))); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	for step, want := range map[int]bool{10: false, 20: true, 30: true, 40: true} {
		_, err := os.Stat(StepDir(dir, step))
		if got := err == nil; got != want {
			t.Fatalf("step %d present=%v, want %v", step, got, want)
		}
	}
}

// TestClusterStateRoundTrip pins the coordinator recovery record.
func TestClusterStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), StateFileName)
	st := &ClusterState{
		CtrlAddr: "127.0.0.1:29400",
		World:    5, Attempt: 3,
		Spec: []byte(`{"stages":1}`),
	}
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A file from a build that also persisted the address book, rank pins,
	// minimum world and checkpoint directory loads the same.
	older := []byte(`{"version": 1, "ctrl_addr": "127.0.0.1:29400", "world": 5, "min_world": 2,
 "attempt": 3, "book": {"0": "a:1", "1": "b:2"}, "pinned": [1], "spec": {"stages":1},
 "ckpt_dir": "/tmp/ckpt", "updated_at_unix": 1700000000}`)
	for _, data := range [][]byte{saved, older} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadState(path)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		var spec struct{ Stages int }
		if err := json.Unmarshal(got.Spec, &spec); err != nil || spec.Stages != 1 {
			t.Fatalf("spec of %s: %s (%v)", data, got.Spec, err)
		}
		if got.CtrlAddr != st.CtrlAddr || got.World != 5 || got.Attempt != 3 {
			t.Fatalf("round trip of %s: %+v", data, got)
		}
		if got.Version != Version || got.UpdatedAtUnix == 0 {
			t.Fatalf("stamps missing: %+v", got)
		}
	}
	// Damaged or incomplete states are rejected, not half-loaded.
	if err := os.WriteFile(path, []byte(`{"world":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(path); err == nil {
		t.Fatal("state without ctrl_addr/spec accepted")
	}
}

// TestOwnerMajorShardedManifestRoundTrip pins the owner-major sharded
// optimizer layout: each rank's shard carries the parameter entries and the
// pieces of the flat velocity vector the ownership map gives it (every entry
// sparse in every other rank's list), and Restore reassembles the full entry
// list bit-identically with the manifest advertising the writing partition.
func TestOwnerMajorShardedManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const params, world, step = 4, 3, 17
	pstate := testState(params, 10)
	// Four uneven pieces of the flat velocity vector over three ranks, in
	// vector order: rank 2 holds two of them, and parameters sit with ranks 0
	// and 1 only — ownership is whatever the map says, not entry mod world.
	counts := []int{9, 5, 3, 2}
	owners := []int{0, 1, 1, 0 /* velocity: */, 2, 0, 2, 1}
	pieces := make([]*tensor.Tensor, len(counts))
	for k, c := range counts {
		v := tensor.New(c)
		for i := range v.Data() {
			v.Data()[i] = float64(k*100+i) - 0.5
		}
		pieces[k] = v
	}
	want := append(append([]*tensor.Tensor(nil), pstate...), pieces...)

	for r := 0; r < world; r++ {
		entries := make([]*tensor.Tensor, len(want))
		var owned []int
		for e, o := range owners {
			if o == r {
				entries[e] = want[e] // a rank holds only what it owns
				owned = append(owned, e)
			}
		}
		if err := WriteShard(dir, step, r, entries, owned); err != nil {
			t.Fatalf("shard %d: %v", r, err)
		}
	}
	m := NewManifestSharded(step, world, 2, 16, params, 0.9, counts, owners)
	if !m.Sharded() {
		t.Fatal("sharded manifest does not report Sharded()")
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	got, entries, skipped, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v on a clean restore", skipped)
	}
	if got == nil || !got.Sharded() || got.Entries != len(want) {
		t.Fatalf("manifest %+v", got)
	}
	for k, c := range counts {
		if got.OptShardCounts[k] != c {
			t.Fatalf("OptShardCounts %v, want %v", got.OptShardCounts, counts)
		}
	}
	for e, o := range owners {
		if got.Owners[e] != o {
			t.Fatalf("entry %d owned by %d, want %d", e, got.Owners[e], o)
		}
	}
	requireBitEqual(t, entries, want)
	for _, e := range entries {
		tensor.Recycle(e)
	}
}

// TestShardedManifestRejectsMissingVelocityEntry pins WriteShard's guard: a
// rank asked to write a velocity shard it does not hold (nil entry) must fail
// loudly instead of committing a checkpoint with a silent hole.
func TestShardedManifestRejectsMissingVelocityEntry(t *testing.T) {
	dir := t.TempDir()
	const params, world = 2, 2
	entries := make([]*tensor.Tensor, params+world)
	copy(entries, testState(params, 4))
	// Rank 0's own velocity shard deliberately absent.
	owned := append(Owned(0, world, params), params+0)
	if err := WriteShard(dir, 3, 0, entries, owned); err == nil {
		t.Fatal("WriteShard accepted a nil velocity entry")
	}
}
