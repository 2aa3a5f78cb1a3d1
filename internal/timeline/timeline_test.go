package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/schedule"
)

func TestBuildSpansComplete(t *testing.T) {
	s := schedule.OneFOneB(3, 6)
	events := Build(s, 2)
	// 3 stages × 6 mb × (fwd + bwd).
	if len(events) != 3*6*2 {
		t.Fatalf("events %d, want 36", len(events))
	}
	for _, e := range events {
		if e.Dur <= 0 || e.Ph != "X" {
			t.Fatalf("empty or non-span event %+v", e)
		}
		if e.Tid < 0 || e.Tid >= 3 {
			t.Fatalf("bad actor %d", e.Tid)
		}
		if e.Name[0] != 'F' && e.Name[0] != 'B' {
			t.Fatalf("event %q is neither a forward nor a backward", e.Name)
		}
	}
}

func TestSpansNonOverlappingPerActor(t *testing.T) {
	s := schedule.GPipe(4, 8)
	last := make([]float64, 4)
	for _, e := range Build(s, 2) {
		if e.Ts < last[e.Tid]-1e-9 {
			t.Fatalf("actor %d spans overlap at %v", e.Tid, e.Ts)
		}
		last[e.Tid] = max(last[e.Tid], e.Ts+e.Dur)
	}
}

func TestRenderASCII(t *testing.T) {
	var buf bytes.Buffer
	s := schedule.OneFOneB(3, 6)
	RenderASCII(&buf, s, 2, 80)
	out := buf.String()
	if !strings.Contains(out, "actor 0") || !strings.Contains(out, "bubble fraction") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 5 {
		t.Fatal("render too short")
	}
}

func TestRenderDegenerate(t *testing.T) {
	var buf bytes.Buffer
	s := schedule.OneFOneB(2, 2)
	RenderASCII(&buf, s, 2, 0) // zero width: no output, no panic
	if buf.Len() != 0 {
		t.Fatal("expected no output at width 0")
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	s := schedule.GPipe(2, 3)
	if err := WriteChromeTraceEvents(&buf, Build(s, 2)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2*3*2 {
		t.Fatalf("events %d, want 12", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
}
