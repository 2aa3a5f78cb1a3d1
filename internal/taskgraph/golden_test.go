package taskgraph

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/schedule"
)

// goldenPrograms compiles the §4.2 schedules and prints every actor's
// instruction list: the order unroll gives runs, sends and receives, the
// buffers and tags it numbers, and where the liveness pass deletes. The
// "pp" rows run 32 rows a step over 4 stages (each actor but stage 0's
// hoists its weight transpose into a prologue); the "dp2x2" rows are the
// pipeline a data-parallel 2×2 job compiles, 2 stages of 2 microbatches of
// 4 rows (8 rows a step, no prologue). A data-parallel replica runs the one
// program compiled for its pipeline, so those rows are what every replica
// runs.
func goldenPrograms(t *testing.T) []byte {
	t.Helper()
	interleaved, err := schedule.Interleaved1F1B(2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, c := range []struct {
		name   string
		stages int
		sched  *schedule.Schedule
		opts   Options
	}{
		{"pp gpipe 4x8", 4, schedule.GPipe(4, 8), Options{}},
		{"pp 1f1b 4x8", 4, schedule.OneFOneB(4, 8), Options{}},
		{"pp interleaved r=2 2x8", 4, interleaved, Options{}},
		{"pp 1f1b 4x8, no deletion pass", 4, schedule.OneFOneB(4, 8), Options{DisableDeletion: true}},
		{"pp 1f1b 4x8, naive ordering", 4, schedule.OneFOneB(4, 8), Options{NaiveCommOrdering: true}},
		{"dp2x2 gpipe 2x2", 2, schedule.GPipe(2, 2), Options{}},
		{"dp2x2 1f1b 2x2", 2, schedule.OneFOneB(2, 2), Options{}},
	} {
		p := compile(t, buildSplit(t, c.stages, 8, false), c.sched, c.opts)
		fmt.Fprintf(&out, "# %s: %d bufs, %d tags, losses %v, grads %v\n", c.name, p.NumBufs, p.NumTags, p.Losses, p.Grads)
		for a, list := range p.Actors {
			fmt.Fprintf(&out, "actor %d\n", a)
			for _, in := range list {
				fmt.Fprintf(&out, "\t%v\n", in)
			}
		}
	}
	return out.Bytes()
}

// TestProgramsMatchGolden pins the compiled instruction lists byte for byte,
// so a change to how the schedule is walked shows as a diff of the §4.2
// order, not only of run counts.
func TestProgramsMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden was written on amd64")
	}
	want, err := os.ReadFile("testdata/programs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenPrograms(t); !bytes.Equal(got, want) {
		t.Errorf("compiled programs differ from testdata/programs.golden:\n%s", got)
	}
}
