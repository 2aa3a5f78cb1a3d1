// Package ckpt implements rank-sharded training checkpoints for the
// multi-process runtime. A checkpoint is one directory per step:
//
//	<dir>/step-00000042/shard-000.ckpt   one file per rank, wire-codec frames
//	<dir>/step-00000042/manifest.json    written last, by rank 0, after a barrier
//
// Each rank serializes the state entries the manifest's ownership map gives
// it as dist wire frames — CRC32 trailers always on, the frame tag carrying the
// entry index — into a temp file renamed into place, so a crash mid-write
// never leaves a half shard under a published name. The manifest records the
// step, the world size, and the entry→rank ownership map; it is only written
// once every shard of the step is durable, which makes "manifest present"
// the atomic commit point of the whole checkpoint. Restore walks checkpoints
// newest-first and falls back past any step whose shards are missing or fail
// their CRC, so a torn or bit-flipped checkpoint degrades to the previous
// consistent one instead of poisoning recovery.
//
// State entries are the driver-held training state, which in this runtime is
// the single source of truth the actors are stepped with: the parameter
// tensors, followed by the optimizer velocity state when momentum is enabled.
// Actor object stores are transient within a step (buffers are reserved at
// load and consumed by the step's own instructions), so exporting driver
// state is exporting actor state. The in-process runner holds all of it and
// writes one shard; a distributed rank holds the current parameters of the
// stage it hosts and the velocity of the ranges it updates, and writes those.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// Version is the checkpoint format version recorded in every manifest.
const Version = 1

// ManifestName is the per-step commit file, written last.
const ManifestName = "manifest.json"

// DefaultKeep is how many complete checkpoints Prune retains: the newest to
// restore from, plus one fallback in case the newest turns out corrupt.
const DefaultKeep = 2

// Manifest describes one complete checkpoint.
type Manifest struct {
	Version int `json:"version"`
	// Step is the number of completed optimizer steps the state reflects;
	// resuming continues at step index Step.
	Step  int `json:"step"`
	World int `json:"world"`
	// Model-shape identity: a checkpoint restores into any world whose
	// compiled program has the same stages/width/params, regardless of the
	// world size that wrote it.
	Stages int `json:"stages"`
	Width  int `json:"width"`
	Params int `json:"params"`
	// Entries is the total serialized tensor count: Params parameters,
	// followed by the optimizer state — Params velocity tensors in the dense
	// layout, or len(OptShardCounts) consecutive pieces of the flat velocity
	// vector in the owner-major sharded layout.
	Entries  int     `json:"entries"`
	Momentum float64 `json:"momentum,omitempty"`
	// OptShardCounts, when non-empty, marks the owner-major sharded optimizer
	// layout: entry Params+k is the k-th piece of the owner-major flat
	// velocity vector (OptShardCounts[k] elements), written by the rank that
	// held it — the pieces concatenate, in entry order, to the whole vector.
	// How the writing world cut it is its own business (one balanced slice per
	// rank before the stage-local epilogue, each stage's replica-group chunks
	// since). The flat vector itself — gradient tensors concatenated in
	// producing-actor order — is a function of the compiled program only, so
	// a reader of any world size reassembles it and re-slices (or unpacks to
	// dense per-tensor state) for its own layout: sharded checkpoints restore
	// across world-size changes and across layout changes in both directions.
	OptShardCounts []int `json:"opt_shard_counts,omitempty"`
	// Owners[e] is the rank that wrote entry e.
	Owners []int `json:"owners"`
	// Shards lists every rank's shard file and the entries it carries.
	Shards      []ShardInfo `json:"shards"`
	SavedAtUnix int64       `json:"saved_at_unix"`
}

// ShardInfo locates one rank's shard within a checkpoint directory.
type ShardInfo struct {
	Rank    int    `json:"rank"`
	File    string `json:"file"`
	Entries []int  `json:"entries"`
}

// OwnerOf is the ownership map of the dense layout: entry e is written by
// rank e mod world.
func OwnerOf(entry, world int) int { return entry % world }

// Owned returns the entry indices rank writes under the round-robin map.
func Owned(rank, world, entries int) []int {
	var out []int
	for e := rank; e < entries; e += world {
		out = append(out, e)
	}
	return out
}

// StepDir returns the directory of one step's checkpoint.
func StepDir(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("step-%08d", step))
}

// ShardFile returns one rank's shard filename within a step directory.
func ShardFile(rank int) string { return fmt.Sprintf("shard-%03d.ckpt", rank) }

// NewManifest fills a manifest for the given training shape.
func NewManifest(step, world, stages, width, params int, momentum float64) *Manifest {
	entries := params
	if momentum != 0 {
		entries *= 2
	}
	m := &Manifest{
		Version: Version, Step: step, World: world,
		Stages: stages, Width: width, Params: params,
		Entries: entries, Momentum: momentum,
		Owners:      make([]int, entries),
		SavedAtUnix: time.Now().Unix(),
	}
	for e := range m.Owners {
		m.Owners[e] = OwnerOf(e, world)
	}
	for r := 0; r < world; r++ {
		m.Shards = append(m.Shards, ShardInfo{
			Rank: r, File: ShardFile(r), Entries: Owned(r, world, entries),
		})
	}
	return m
}

// NewManifestSharded fills a manifest for the owner-major sharded optimizer
// layout under an explicit ownership map: Params parameter entries followed
// by one entry per piece of the flat velocity vector (optCounts, in vector
// order; none for an optimizer without state), owners[e] being the rank that
// holds entry e and therefore writes it. Every rank gets a shard file, a rank
// that owns nothing an empty one.
func NewManifestSharded(step, world, stages, width, params int, momentum float64, optCounts, owners []int) *Manifest {
	m := &Manifest{
		Version: Version, Step: step, World: world,
		Stages: stages, Width: width, Params: params,
		Entries: params + len(optCounts), Momentum: momentum,
		OptShardCounts: append([]int(nil), optCounts...),
		Owners:         append([]int(nil), owners...),
		SavedAtUnix:    time.Now().Unix(),
		Shards:         make([]ShardInfo, world),
	}
	for r := range m.Shards {
		m.Shards[r] = ShardInfo{Rank: r, File: ShardFile(r), Entries: []int{}}
	}
	for e, r := range m.Owners {
		m.Shards[r].Entries = append(m.Shards[r].Entries, e)
	}
	return m
}

// Sharded reports whether the manifest uses the owner-major sharded
// optimizer layout.
func (m *Manifest) Sharded() bool { return len(m.OptShardCounts) > 0 }

// Compatible reports whether a manifest's state restores into a job with the
// given model shape. The world size deliberately does not participate: elastic
// resume restores old-world checkpoints into reformed (smaller or larger)
// worlds.
func (m *Manifest) Compatible(stages, width, params int, momentum float64) error {
	if m.Version != Version {
		return fmt.Errorf("ckpt: manifest version %d, this build reads %d", m.Version, Version)
	}
	if m.Stages != stages || m.Width != width || m.Params != params {
		return fmt.Errorf("ckpt: checkpoint is for stages=%d width=%d params=%d, job wants stages=%d width=%d params=%d",
			m.Stages, m.Width, m.Params, stages, width, params)
	}
	if (m.Momentum != 0) != (momentum != 0) {
		return fmt.Errorf("ckpt: checkpoint momentum %v, job momentum %v (velocity entries cannot be synthesized)", m.Momentum, momentum)
	}
	return nil
}

// WriteShard serializes this rank's owned entries into the step directory,
// atomically: frames stream into a dot-temp file (ignored by directory
// scans), fsync, then rename into the published shard name. CRC trailers are
// always on — corruption detection is the reason shards exist.
func WriteShard(dir string, step, rank int, entries []*tensor.Tensor, owned []int) error {
	sd := StepDir(dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := filepath.Join(sd, fmt.Sprintf(".tmp-%s", ShardFile(rank)))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	for _, e := range owned {
		if e < 0 || e >= len(entries) || entries[e] == nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ckpt: rank %d asked to write missing entry %d of %d", rank, e, len(entries))
		}
		h := dist.Header{
			Kind: dist.KindData, From: rank, To: rank, Tag: e,
			DType: dist.DTF64, Shape: entries[e].Shape(),
		}
		if err := dist.WriteFrame(bw, &h, entries[e].Data(), true); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ckpt: rank %d shard write: %w", rank, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: rank %d shard flush: %w", rank, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: rank %d shard sync: %w", rank, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(sd, ShardFile(rank))); err != nil {
		return fmt.Errorf("ckpt: publish shard: %w", err)
	}
	return nil
}

// WriteManifest publishes a checkpoint: the manifest lands under a temp name
// and renames into place, so readers only ever observe absent or complete.
// Call it strictly after every shard of the step is durable (the distributed
// writer barriers first) — the manifest is the commit record.
func WriteManifest(dir string, m *Manifest) error {
	sd := StepDir(dir, m.Step)
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := filepath.Join(sd, ".tmp-"+ManifestName)
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(sd, ManifestName)); err != nil {
		return fmt.Errorf("ckpt: publish manifest: %w", err)
	}
	return nil
}

// steps lists the checkpoint step numbers present under dir (committed or
// not), descending.
func steps(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []int
	for _, e := range ents {
		var step int
		if !e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "step-%d", &step); err == nil {
			out = append(out, step)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out, nil
}

// readManifest loads a step's commit record, or an error if the checkpoint
// was never committed (no manifest) or the manifest itself is damaged.
func readManifest(dir string, step int) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(StepDir(dir, step), ManifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: step %d has no committed manifest: %w", step, err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("ckpt: step %d manifest damaged: %w", step, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("ckpt: step %d manifest version %d, this build reads %d", step, m.Version, Version)
	}
	// The entries the layout gives: Params parameters, then the sharded
	// pieces, or a velocity per parameter, or nothing.
	opt := len(m.OptShardCounts)
	if !m.Sharded() && m.Momentum != 0 {
		opt = m.Params
	}
	if m.Step != step || m.Params < 0 || m.Entries != m.Params+opt || len(m.Owners) != m.Entries {
		return nil, fmt.Errorf("ckpt: step %d manifest damaged: step %d, %d entries for %d parameters and %d optimizer entries, %d owners",
			step, m.Step, m.Entries, m.Params, opt, len(m.Owners))
	}
	for _, sh := range m.Shards {
		if sh.File != ShardFile(sh.Rank) {
			return nil, fmt.Errorf("ckpt: step %d manifest damaged: rank %d's shard is %q", step, sh.Rank, sh.File)
		}
	}
	return m, nil
}

// load reads every shard of a committed checkpoint and reassembles the full
// entry list. Any missing file, truncated frame, CRC mismatch, duplicate,
// out-of-range or misplaced entry, or optimizer entry of another shape than
// the manifest gives fails the whole load — the caller falls back to an
// older checkpoint. A shard is read whole and decoded from memory, so a frame
// that claims more than the file holds is truncated before a tensor is sized
// for it. Returned tensors are pool-owned (the wire decode rule): the caller
// recycles them or keeps ownership.
func load(dir string, m *Manifest) (entries []*tensor.Tensor, err error) {
	sd := StepDir(dir, m.Step)
	entries = make([]*tensor.Tensor, m.Entries)
	defer func() {
		if err != nil {
			for _, t := range entries {
				tensor.Recycle(t)
			}
		}
	}()
	for _, sh := range m.Shards {
		data, ferr := os.ReadFile(filepath.Join(sd, sh.File))
		if ferr != nil {
			return nil, fmt.Errorf("ckpt: step %d: %w", m.Step, ferr)
		}
		dec := dist.NewDecoder(bytes.NewReader(data))
		n := 0
		for {
			h, t, derr := dec.ReadFrame()
			if derr == io.EOF {
				break
			}
			if derr != nil {
				return nil, fmt.Errorf("ckpt: step %d shard %s: %w", m.Step, sh.File, derr)
			}
			if h.Kind != dist.KindData || t == nil {
				return nil, fmt.Errorf("ckpt: step %d shard %s: unexpected frame kind %d", m.Step, sh.File, h.Kind)
			}
			if h.Tag < 0 || h.Tag >= m.Entries || m.Owners[h.Tag] != sh.Rank {
				tensor.Recycle(t)
				return nil, fmt.Errorf("ckpt: step %d shard %s: entry %d out of range [0,%d) or not rank %d's", m.Step, sh.File, h.Tag, m.Entries, sh.Rank)
			}
			if entries[h.Tag] != nil {
				tensor.Recycle(t)
				return nil, fmt.Errorf("ckpt: step %d shard %s: duplicate entry %d", m.Step, sh.File, h.Tag)
			}
			entries[h.Tag] = t
			n++
		}
		if n != len(sh.Entries) {
			return nil, fmt.Errorf("ckpt: step %d shard %s: %d entries, manifest promises %d", m.Step, sh.File, n, len(sh.Entries))
		}
	}
	for e, t := range entries {
		if t == nil {
			return nil, fmt.Errorf("ckpt: step %d: entry %d missing from every shard", m.Step, e)
		}
		if e < m.Params {
			continue // parameter shapes are the job's to check
		}
		// A sharded piece is as long as its count, a dense velocity has its
		// parameter's shape.
		want := entries[e-m.Params].Shape()
		if m.Sharded() {
			want = []int{m.OptShardCounts[e-m.Params]}
		}
		if !slices.Equal(t.Shape(), want) {
			return nil, fmt.Errorf("ckpt: step %d: entry %d has shape %v, manifest gives %v", m.Step, e, t.Shape(), want)
		}
	}
	return entries, nil
}

// Restore loads the newest consistent checkpoint under dir. Uncommitted
// (manifest-less) and corrupt checkpoints are skipped — their step numbers
// are returned in skipped so the caller can report the fallback — and
// (nil, nil, skipped, nil) means no usable checkpoint exists: start fresh.
// Returned tensors are pool-owned; the caller takes ownership.
func Restore(dir string) (m *Manifest, entries []*tensor.Tensor, skipped []int, err error) {
	if dir == "" {
		return nil, nil, nil, nil
	}
	ss, err := steps(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, step := range ss {
		mf, merr := readManifest(dir, step)
		if merr != nil {
			skipped = append(skipped, step)
			continue
		}
		ts, lerr := load(dir, mf)
		if lerr != nil {
			skipped = append(skipped, step)
			continue
		}
		return mf, ts, skipped, nil
	}
	return nil, nil, skipped, nil
}

// Prune deletes all but the newest keep committed checkpoints (plus any
// newer uncommitted step directories, which belong to an in-flight write).
// keep <= 0 uses DefaultKeep.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		keep = DefaultKeep
	}
	ss, err := steps(dir)
	if err != nil {
		return err
	}
	committed := 0
	for _, step := range ss {
		if _, merr := readManifest(dir, step); merr != nil {
			// Uncommitted: a concurrent writer's in-flight step (newer than
			// every committed one) must survive; older manifest-less debris
			// goes once enough committed checkpoints precede it.
			if committed == 0 {
				continue
			}
		} else {
			committed++
			if committed <= keep {
				continue
			}
		}
		if err := os.RemoveAll(StepDir(dir, step)); err != nil {
			return fmt.Errorf("ckpt: prune step %d: %w", step, err)
		}
	}
	return nil
}
