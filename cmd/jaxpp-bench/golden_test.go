package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// simulated lists the experiments that only simulate: their text depends on
// nothing but the code, so it is pinned byte for byte.
var simulated = []string{"fig6", "fig7", "fig8", "fig9", "fig10", "table1"}

func simulatedText(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, name := range simulated {
		if err := run(&out, name); err != nil {
			t.Fatalf("-exp %s: %v", name, err)
		}
	}
	return out.Bytes()
}

// TestFiguresMatchGolden pins the paper's figures and Table 1 as the
// simulator prints them, where TestTable1MatchesPaperWithin10Percent and the
// shape tests only bound them.
func TestFiguresMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden was written on amd64")
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := simulatedText(t); !bytes.Equal(got, want) {
		t.Errorf("-exp fig6 … table1 differs from testdata/figures.golden:\n%s", got)
	}
}
