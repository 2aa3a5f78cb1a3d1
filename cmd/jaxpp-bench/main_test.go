package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// number matches what differs between two runs of the timed experiments
// (validate, shaped): their measurements. The simulated figures are
// deterministic, so masking numbers loses nothing there.
var number = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

func masked(b []byte) string { return string(number.ReplaceAll(b, []byte("N"))) }

// TestEveryExperimentRunsAndAllConcatenates runs each table entry on its own
// — every one must print a block, and shaped must land inside its band or
// return an error — then "all", which must be the same blocks in table order.
func TestEveryExperimentRunsAndAllConcatenates(t *testing.T) {
	var each bytes.Buffer
	for _, e := range table {
		before := each.Len()
		if err := run(&each, e.name); err != nil {
			t.Fatalf("-exp %s: %v", e.name, err)
		}
		if block := each.Bytes()[before:]; len(bytes.TrimSpace(block)) == 0 || !bytes.HasSuffix(block, []byte("\n\n")) {
			t.Errorf("-exp %s printed %q, want a non-empty block closed by a blank line", e.name, block)
		}
	}
	var all bytes.Buffer
	if err := run(&all, "all"); err != nil {
		t.Fatalf("-exp all: %v", err)
	}
	if got, want := masked(all.Bytes()), masked(each.Bytes()); got != want {
		t.Errorf("-exp all is not the experiments in table order:\n%s\nwant:\n%s", got, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "x")
	if err == nil || err.Error() != `unknown experiment "x"` {
		t.Errorf(`run("x") = %v, want unknown experiment "x"`, err)
	}
	if out.Len() != 0 {
		t.Errorf("an unknown experiment printed %q", out.String())
	}
}

// TestUsageListsTheTable pins that the -exp help names "all" and then exactly
// the table's experiments, in order.
func TestUsageListsTheTable(t *testing.T) {
	_, list, ok := strings.Cut(usage(), ": ")
	if !ok {
		t.Fatalf("usage %q has no name list", usage())
	}
	want := []string{"all"}
	for _, e := range table {
		want = append(want, e.name)
	}
	if got := strings.Split(list, "|"); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("usage lists %v, table has %v", got, want)
	}
}
