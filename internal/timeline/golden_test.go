package timeline

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/schedule"
)

// goldenBuild writes Build's Chrome JSON for GPipe, 1F1B and interleaved
// 1F1B (r = 2) over 3 actors and 6 microbatches, at a backward that lasts
// 2.3 forwards: a ratio whose sums round, so the golden pins the float
// arithmetic of the replay as well as its order.
func goldenBuild(t *testing.T) []byte {
	t.Helper()
	interleaved, err := schedule.Interleaved1F1B(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, s := range []*schedule.Schedule{schedule.GPipe(3, 6), schedule.OneFOneB(3, 6), interleaved} {
		if err := WriteChromeTraceEvents(&out, Build(s, 2.3)); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

func TestBuildMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden was written on amd64")
	}
	want, err := os.ReadFile("testdata/build-bwd2.3.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenBuild(t); !bytes.Equal(got, want) {
		t.Errorf("Build's Chrome JSON differs from testdata/build-bwd2.3.json:\n%s", got)
	}
}
