package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// reset restores a clean registry between tests (aggregates, counters, span
// rings); scope/counter names persist, which mirrors production.
func reset() {
	Disable()
	SnapshotAndReset()
}

func TestDisabledTrackStopZeroAllocs(t *testing.T) {
	reset()
	s := Scope("test/disabled_allocs")
	c := Counter("test/disabled_counter")
	allocs := testing.AllocsPerRun(1000, func() {
		h := Track(s)
		h.Stop()
		Add(c, 1)
		Observe(s, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledTrackStopZeroAllocs(t *testing.T) {
	reset()
	s := Scope("test/enabled_allocs")
	Enable()
	defer reset()
	allocs := testing.AllocsPerRun(1000, func() {
		h := TrackTid(s, 3)
		h.StopBytes(64)
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	reset()
	s := Scope("test/disabled_records")
	c := Counter("test/disabled_records_counter")
	h := Track(s)
	h.Stop()
	Add(c, 7)
	Observe(s, 9)
	snap := SnapshotAndReset()
	if _, ok := snap.ScopeByName("test/disabled_records"); ok {
		t.Fatal("disabled Track/Observe still recorded scope stats")
	}
	if v := snap.CounterValue("test/disabled_records_counter"); v != 0 {
		t.Fatalf("disabled Add recorded %d", v)
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("disabled run produced %d spans", len(snap.Spans))
	}
}

func TestSnapshotAggregatesAndResets(t *testing.T) {
	reset()
	s := Scope("seg/0")
	c := Counter("wire/frames_sent")
	Enable()
	defer reset()

	for i := 0; i < 5; i++ {
		h := TrackTid(s, 1)
		time.Sleep(time.Millisecond)
		h.StopBytes(100)
	}
	Add(c, 42)

	snap := SnapshotAndReset()
	st, ok := snap.ScopeByName("seg/0")
	if !ok {
		t.Fatal("scope seg/0 missing from snapshot")
	}
	if st.Count != 5 {
		t.Fatalf("count = %d, want 5", st.Count)
	}
	if st.Total < 5*int64(time.Millisecond) {
		t.Fatalf("total = %v, want >= 5ms", time.Duration(st.Total))
	}
	if st.Min <= 0 || st.Max < st.Min || st.Total < st.Max {
		t.Fatalf("inconsistent min/max/total: %+v", st)
	}
	if st.Bytes != 500 {
		t.Fatalf("bytes = %d, want 500", st.Bytes)
	}
	if v := snap.CounterValue("wire/frames_sent"); v != 42 {
		t.Fatalf("counter = %d, want 42", v)
	}
	if len(snap.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(snap.Spans))
	}
	for _, sp := range snap.Spans {
		if sp.Scope != "seg/0" || sp.Tid != 1 || sp.DurUs <= 0 {
			t.Fatalf("bad span: %+v", sp)
		}
	}

	// Reset really reset: a second snapshot is empty.
	snap2 := SnapshotAndReset()
	if len(snap2.Scopes) != 0 || len(snap2.Counters) != 0 || len(snap2.Spans) != 0 {
		t.Fatalf("second snapshot not empty: %+v", snap2)
	}
}

func TestObserve(t *testing.T) {
	reset()
	s := Scope("wire/send_queue")
	Enable()
	defer reset()
	for _, v := range []int64{3, 1, 7} {
		Observe(s, v)
	}
	snap := SnapshotAndReset()
	st, ok := snap.ScopeByName("wire/send_queue")
	if !ok {
		t.Fatal("observe scope missing")
	}
	if st.Count != 3 || st.Total != 11 || st.Min != 1 || st.Max != 7 {
		t.Fatalf("observe stats wrong: %+v", st)
	}
	if len(snap.Spans) != 0 {
		t.Fatal("Observe must not record trace spans")
	}
}

func TestSpanRingDropsWhenFull(t *testing.T) {
	reset()
	s := Scope("test/ring_full")
	Enable()
	defer reset()
	// All on tid 0 → one shard; overflow by 100.
	n := spanShardCap + 100
	for i := 0; i < n; i++ {
		TrackTid(s, 0).Stop()
	}
	snap := SnapshotAndReset()
	if len(snap.Spans) != spanShardCap {
		t.Fatalf("spans = %d, want %d", len(snap.Spans), spanShardCap)
	}
	if snap.Dropped != 100 {
		t.Fatalf("dropped = %d, want 100", snap.Dropped)
	}
	st, _ := snap.ScopeByName("test/ring_full")
	if st.Count != int64(n) {
		t.Fatalf("aggregate count = %d, want %d (aggregates must not drop)", st.Count, n)
	}
}

// TestParallelRecording exercises concurrent span recording from many
// goroutines across shards, under the race detector in CI.
func TestParallelRecording(t *testing.T) {
	reset()
	s := Scope("test/parallel")
	c := Counter("test/parallel_counter")
	Enable()
	defer reset()

	const workers = 16
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h := TrackTid(s, tid)
				Add(c, 1)
				h.StopBytes(8)
			}
		}(w)
	}
	wg.Wait()

	snap := SnapshotAndReset()
	st, ok := snap.ScopeByName("test/parallel")
	if !ok || st.Count != workers*per {
		t.Fatalf("count = %d, want %d", st.Count, workers*per)
	}
	if v := snap.CounterValue("test/parallel_counter"); v != workers*per {
		t.Fatalf("counter = %d, want %d", v, workers*per)
	}
	if st.Bytes != workers*per*8 {
		t.Fatalf("bytes = %d, want %d", st.Bytes, workers*per*8)
	}
	// 16 tids fold onto 8 shards of 4096: all 3200 spans must fit.
	if len(snap.Spans)+int(snap.Dropped) != workers*per {
		t.Fatalf("spans %d + dropped %d != %d", len(snap.Spans), snap.Dropped, workers*per)
	}
	if snap.Dropped != 0 {
		t.Fatalf("unexpected drops: %d", snap.Dropped)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reset()
	s := Scope("seg/1")
	Enable()
	defer reset()
	TrackTid(s, 2).StopBytes(16)
	snap := SnapshotAndReset()
	snap.Rank = 3
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rank != 3 || len(back.Spans) != 1 || back.Spans[0].Scope != "seg/1" || back.Spans[0].Tid != 2 {
		t.Fatalf("round trip mangled snapshot: %+v", back)
	}
}

func TestBreakdownClassification(t *testing.T) {
	snap := &Snapshot{Scopes: []ScopeStats{
		{Name: "seg/2", Total: 100},
		{Name: "step/sgd", Total: 50},
		{Name: "coll/reduce", Total: 30},
		{Name: "wire/encode", Total: 20},
		{Name: "coll/wait", Total: 40},
		{Name: "actor/recv", Total: 60},
		{Name: "step/grad_allreduce", Total: 999}, // envelope: excluded
	}}
	compute, wire, idle := snap.Breakdown()
	if compute != 150 || wire != 50 || idle != 100 {
		t.Fatalf("breakdown = %v/%v/%v, want 150/50/100", compute, wire, idle)
	}
}

func TestScopeIdempotentRegistration(t *testing.T) {
	a := Scope("test/idempotent")
	b := Scope("test/idempotent")
	if a != b {
		t.Fatalf("Scope returned different IDs: %d vs %d", a, b)
	}
	ca := Counter("test/idempotent_c")
	cb := Counter("test/idempotent_c")
	if ca != cb {
		t.Fatalf("Counter returned different IDs: %d vs %d", ca, cb)
	}
}

// BenchmarkTrackStopDisabled pins the disabled-gate overhead: the whole
// Track+Stop pair should cost a couple of atomic loads (single-digit ns) and
// 0 allocs.
func BenchmarkTrackStopDisabled(b *testing.B) {
	reset()
	s := Scope("bench/disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := Track(s)
		h.Stop()
	}
}

func BenchmarkTrackStopEnabled(b *testing.B) {
	reset()
	s := Scope("bench/enabled")
	Enable()
	b.Cleanup(reset)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := Track(s)
		h.Stop()
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	reset()
	c := Counter("bench/counter_disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Add(c, 1)
	}
}

// CounterValue returns a counter's value from the snapshot (0 if absent).
func (s *Snapshot) CounterValue(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
