package ckpt

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// FuzzRestore writes a fuzzed manifest and up to four fuzzed shards (an
// empty one is left out) into the directory of step 2 and restores it.
// Restore must not panic, and must either skip the step or return a
// checkpoint of step 2 that passes Compatible with its own model shape, with
// the entries its layout gives — Params parameters, then one velocity per
// parameter of that parameter's shape (dense, momentum on), or one piece per
// OptShardCounts count of that many elements (sharded), or nothing — and
// nothing else. The committed corpus (testdata/fuzz/FuzzRestore) holds the
// checkpoints internal/distrun/testdata keeps, dense-world2 and
// sharded-world4, and manifests that once made Restore panic or reach
// outside the step directory.
func FuzzRestore(f *testing.F) {
	// One step directory, rewritten by every input: a directory made and
	// removed per input would cost more than Restore itself.
	dir := f.TempDir()
	sd := StepDir(dir, 2)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, manifest, shard0, shard1, shard2, shard3 []byte) {
		if err := os.WriteFile(filepath.Join(sd, ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		for r, b := range [][]byte{shard0, shard1, shard2, shard3} {
			path := filepath.Join(sd, ShardFile(r))
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if len(b) == 0 {
				continue
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, entries, skipped, err := Restore(dir)
		for _, e := range entries {
			tensor.Recycle(e)
		}
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if m == nil {
			if !slices.Equal(skipped, []int{2}) {
				t.Fatalf("no checkpoint restored, skipped %v, want [2]", skipped)
			}
			return
		}
		if len(skipped) != 0 || m.Step != 2 {
			t.Fatalf("restored step %d, skipped %v", m.Step, skipped)
		}
		if err := m.Compatible(m.Stages, m.Width, m.Params, m.Momentum); err != nil {
			t.Fatalf("restored a manifest its own shape refuses: %v", err)
		}
		var want [][]int // shapes of the entries past the parameters
		switch {
		case len(m.OptShardCounts) > 0:
			for _, c := range m.OptShardCounts {
				want = append(want, []int{c})
			}
		case m.Momentum != 0:
			for _, p := range entries[:m.Params] {
				want = append(want, p.Shape())
			}
		}
		if m.Params < 0 || len(entries) != m.Params+len(want) || m.Entries != len(entries) {
			t.Fatalf("%d entries restored, manifest says %d, layout gives %d parameters and %d more", len(entries), m.Entries, m.Params, len(want))
		}
		for k, shape := range want {
			if got := entries[m.Params+k].Shape(); !slices.Equal(got, shape) {
				t.Fatalf("entry %d has shape %v, the manifest gives %v", m.Params+k, got, shape)
			}
		}
	})
}
