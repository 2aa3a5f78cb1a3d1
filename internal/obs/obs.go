// Package obs is the process-wide runtime-profiling registry: named timing
// scopes (Track/Stop spans aggregated into per-scope count/total/min/max),
// monotonic counters (frames, bytes, pool hits), value observations (queue
// depths), and a span ring that feeds Chrome trace-event export — the
// per-segment observability layer the runtime, collective engine, and dist
// transport report into.
//
// The registry is gated by one package-level atomic. Disabled — the default —
// every hot-path entry point (Track, Stop, Add, Observe) is a single atomic
// load and a branch: zero heap allocations, no time syscalls, no shared-cache
// traffic beyond the read-mostly gate word. Instrumentation can therefore
// live permanently inside per-chunk collective loops and per-instruction
// actor dispatch without moving the benchmarks that gate the repo.
//
// Enabled, recording stays lock-free: scope aggregates are atomics, and spans
// land in fixed-size shard rings via an atomic cursor (a full ring drops new
// spans and counts them, it never blocks a recorder).
//
// Snapshot lifetime (ownership rule): SnapshotAndReset drains the registry at
// a quiescent point — a step boundary or job end, when instrumented goroutines
// are parked. The returned Snapshot is caller-owned, detached from registry
// state. Spans recorded concurrently with the reset may be attributed to
// either side or dropped (never corrupted: slots are claim-stamped), so
// drivers snapshot between steps, not during them. BreakdownNow and
// CounterNow read live totals without resetting and are safe at any time.
package obs

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	maxScopes   = 256
	maxCounters = 256

	// Span ring geometry: shards are picked by recorder ID (actor/rank), so
	// concurrent recorders claim slots from different cursors.
	numSpanShards = 8
	spanShardCap  = 1 << 12
)

// gate is the package-level enable switch every hot path loads first.
var gate atomic.Bool

// epoch anchors monotonic span timestamps; epochWallNs converts them to
// wall-clock microseconds so traces from different processes on one machine
// line up without clock-sync machinery.
var (
	epoch       = time.Now()
	epochWallNs = epoch.UnixNano()
)

func init() {
	// Zero-config enablement for tools that cannot thread a flag through
	// (benchmark harnesses, CI smokes): any non-empty JAXPP_PROF enables.
	if os.Getenv("JAXPP_PROF") != "" {
		Enable()
	}
}

// Enable turns recording on. Idempotent.
func Enable() { gate.Store(true) }

// Disable turns recording off; in-flight Stop calls still record. Idempotent.
func Disable() { gate.Store(false) }

// Enabled reports the gate state — for callers that must pay a real cost
// (computing a queue depth, formatting a summary) before calling in.
func Enabled() bool { return gate.Load() }

// ScopeID indexes a registered timing scope. The zero value is a reserved
// invalid scope, so a zero Handle is always a no-op.
type ScopeID int32

// CounterID indexes a registered counter.
type CounterID int32

// scopeAgg is one scope's lock-free aggregate.
type scopeAgg struct {
	count atomic.Int64
	total atomic.Int64 // span ns, or observed-value sum for Observe scopes
	min   atomic.Int64
	max   atomic.Int64
	bytes atomic.Int64
}

var (
	regMu        sync.Mutex
	scopeNames   = []string{"<invalid>"} // index 0 reserved
	counterNames = []string{"<invalid>"}
	scopeIdx     = map[string]ScopeID{}
	counterIdx   = map[string]CounterID{}

	scopes   [maxScopes]scopeAgg
	counters [maxCounters]atomic.Int64

	// scopeClass caches the breakdown class of every registered scope at
	// registration time, and numScopes publishes how many are registered —
	// together they let BreakdownNow classify live aggregates with no string
	// work, no lock, and no allocations (the StepSample fast path).
	scopeClass [maxScopes]atomic.Uint32
	numScopes  atomic.Int32

	dropped atomic.Int64
	gen     atomic.Uint64
	lastNs  atomic.Int64 // ns-since-epoch of the last reset (snapshot wall base)
)

// Scope registers (or looks up) a named timing scope and returns its ID.
// Registration takes a lock; call it once at init or load time and keep the
// ID — hot paths touch only the aggregate array.
func Scope(name string) ScopeID {
	regMu.Lock()
	defer regMu.Unlock()
	if id, ok := scopeIdx[name]; ok {
		return id
	}
	if len(scopeNames) >= maxScopes {
		panic("obs: scope registry full")
	}
	id := ScopeID(len(scopeNames))
	scopeNames = append(scopeNames, name)
	scopeIdx[name] = id
	scopes[id].min.Store(int64(^uint64(0) >> 1)) // MaxInt64
	scopeClass[id].Store(uint32(classCode(name)))
	numScopes.Store(int32(len(scopeNames)))
	return id
}

// Counter registers (or looks up) a named counter and returns its ID.
func Counter(name string) CounterID {
	regMu.Lock()
	defer regMu.Unlock()
	if id, ok := counterIdx[name]; ok {
		return id
	}
	if len(counterNames) >= maxCounters {
		panic("obs: counter registry full")
	}
	id := CounterID(len(counterNames))
	counterNames = append(counterNames, name)
	counterIdx[name] = id
	return id
}

// CounterNames returns every registered counter's name and current value,
// index-aligned, skipping the reserved slot 0. Cold path (allocates) — the
// /metrics passthrough.
func CounterNames() ([]string, []int64) {
	regMu.Lock()
	names := counterNames[1:]
	regMu.Unlock()
	out := make([]string, len(names))
	vals := make([]int64, len(names))
	for i, n := range names {
		out[i] = n
		vals[i] = counters[i+1].Load()
	}
	return out, vals
}

// ScopeTotals returns every registered scope's name and cumulative total
// (nanoseconds for timed scopes, value sums for Observe scopes),
// index-aligned. Cold path (allocates) — the /metrics passthrough.
func ScopeTotals() ([]string, []int64) {
	regMu.Lock()
	names := scopeNames[1:]
	regMu.Unlock()
	out := make([]string, len(names))
	vals := make([]int64, len(names))
	for i, n := range names {
		out[i] = n
		vals[i] = scopes[i+1].total.Load()
	}
	return out, vals
}

// Add bumps a counter by n. Disabled: one atomic load and a branch.
func Add(c CounterID, n int64) {
	if !gate.Load() {
		return
	}
	counters[c].Add(n)
}

// Handle is an open span returned by Track. The zero value (disabled gate)
// makes Stop a branch-only no-op; handles are plain stack values, so the
// whole Track/Stop pair performs zero heap allocations in either state.
type Handle struct {
	scope ScopeID
	tid   int32
	start int64
}

// Track opens a span on a scope (recorder ID 0). Disabled: one atomic load.
func Track(s ScopeID) Handle { return TrackTid(s, 0) }

// TrackTid opens a span attributed to a recorder ID (an actor or rank) — the
// Chrome-trace thread lane the span renders into, and the shard its record
// lands in.
func TrackTid(s ScopeID, tid int) Handle {
	if !gate.Load() {
		return Handle{}
	}
	n := int64(time.Since(epoch))
	if n == 0 {
		n = 1 // keep the zero Handle unambiguous as "disabled"
	}
	return Handle{scope: s, tid: int32(tid), start: n}
}

// Stop closes the span, folding its duration into the scope aggregate and
// recording a trace event. No-op on a zero handle.
func (h Handle) Stop() { h.StopBytes(0) }

// StopBytes is Stop plus a byte attribution (payload moved under the span),
// folded into the scope's byte counter.
func (h Handle) StopBytes(n int64) {
	if h.start == 0 {
		return
	}
	end := int64(time.Since(epoch))
	a := &scopes[h.scope]
	d := end - h.start
	a.count.Add(1)
	a.total.Add(d)
	if n != 0 {
		a.bytes.Add(n)
	}
	atomicMin(&a.min, d)
	atomicMax(&a.max, d)
	recordSpan(h.scope, h.tid, h.start, end)
}

// Observe folds a sampled value (a queue depth, a batch size) into a scope's
// count/total/min/max without recording a trace span. Disabled: one atomic
// load and a branch.
func Observe(s ScopeID, v int64) {
	if !gate.Load() {
		return
	}
	a := &scopes[s]
	a.count.Add(1)
	a.total.Add(v)
	atomicMin(&a.min, v)
	atomicMax(&a.max, v)
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// spanSlot is one trace event. Fields are written plainly by the slot's
// claiming recorder, then published with a release-store of stamp; readers
// acquire-load the stamp and accept the slot only when it matches the
// expected (generation, ticket) pair, so a mid-write slot is skipped, never
// torn.
type spanSlot struct {
	stamp atomic.Uint64 // generation<<32 | ticket+1
	scope int32
	tid   int32
	start int64
	end   int64
}

type spanShard struct {
	cursor atomic.Int64
	_      [56]byte // keep shard cursors off each other's cache line
}

var (
	shardCursors [numSpanShards]spanShard
	spanSlots    [numSpanShards][spanShardCap]spanSlot
)

func recordSpan(scope ScopeID, tid int32, start, end int64) {
	g := gen.Load()
	sh := int(uint32(tid)) & (numSpanShards - 1)
	t := shardCursors[sh].cursor.Add(1) - 1
	if t >= spanShardCap {
		dropped.Add(1)
		return
	}
	sl := &spanSlots[sh][t]
	sl.scope = int32(scope)
	sl.tid = tid
	sl.start = start
	sl.end = end
	sl.stamp.Store(g<<32 | uint64(t) + 1)
}

// ScopeStats is one scope's aggregate in a snapshot. For Track scopes Total/
// Min/Max are nanoseconds; for Observe scopes they are the observed values.
type ScopeStats struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Total int64  `json:"total_ns"`
	Min   int64  `json:"min_ns"`
	Max   int64  `json:"max_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

// CounterStat is one counter's value in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Span is one trace event, wall-clock anchored in microseconds (the Chrome
// trace-event unit) so per-process traces from one machine merge coherently.
type Span struct {
	Scope   string  `json:"scope"`
	Tid     int     `json:"tid"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// Snapshot is a detached copy of the registry at one point in time. It
// marshals to JSON as-is: distributed ranks ship it over the control plane as
// the end-of-job profile frame.
type Snapshot struct {
	// Rank stamps which process recorded this snapshot (set by the driver).
	Rank int `json:"rank"`
	// WallNs is the wall time covered since the previous reset.
	WallNs   int64         `json:"wall_ns"`
	Scopes   []ScopeStats  `json:"scopes"`
	Counters []CounterStat `json:"counters"`
	Spans    []Span        `json:"spans,omitempty"`
	Dropped  int64         `json:"dropped_spans,omitempty"`
}

// SnapshotAndReset drains the registry: scope aggregates and counters swap to
// zero, span rings restart, and everything drained returns as a caller-owned
// Snapshot. Call at a quiescent point (see the package ownership rule).
func SnapshotAndReset() *Snapshot {
	now := int64(time.Since(epoch))
	s := &Snapshot{WallNs: now - lastNs.Swap(now)}
	regMu.Lock()
	names := scopeNames
	cnames := counterNames
	regMu.Unlock()

	for id := 1; id < len(names); id++ {
		a := &scopes[id]
		count := a.count.Swap(0)
		total := a.total.Swap(0)
		min := a.min.Swap(int64(^uint64(0) >> 1))
		max := a.max.Swap(0)
		bytes := a.bytes.Swap(0)
		if count == 0 {
			continue
		}
		s.Scopes = append(s.Scopes, ScopeStats{
			Name: names[id], Count: count, Total: total, Min: min, Max: max, Bytes: bytes,
		})
	}
	for id := 1; id < len(cnames); id++ {
		if v := counters[id].Swap(0); v != 0 {
			s.Counters = append(s.Counters, CounterStat{Name: cnames[id], Value: v})
		}
	}

	// Drain span shards under the current generation, then advance it so a
	// straggling recorder's stamp can never validate against the next drain.
	g := gen.Load()
	for sh := 0; sh < numSpanShards; sh++ {
		n := shardCursors[sh].cursor.Load()
		if n > spanShardCap {
			n = spanShardCap
		}
		for t := int64(0); t < n; t++ {
			sl := &spanSlots[sh][t]
			if sl.stamp.Load() != g<<32|uint64(t)+1 {
				continue // claimed but unpublished (or stale generation)
			}
			s.Spans = append(s.Spans, Span{
				Scope:   names[sl.scope],
				Tid:     int(sl.tid),
				StartUs: wallUs(sl.start),
				DurUs:   float64(sl.end-sl.start) / 1e3,
			})
		}
	}
	gen.Add(1)
	for sh := 0; sh < numSpanShards; sh++ {
		shardCursors[sh].cursor.Store(0)
	}
	s.Dropped = dropped.Swap(0)
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].StartUs < s.Spans[j].StartUs })
	return s
}

func wallUs(ns int64) float64 { return float64(epochWallNs+ns) / 1e3 }

// Classification: scope names follow a layer/phase convention, and the
// compute/wire/idle breakdown the bench trajectory gates on is derived from
// it. Only leaf scopes classify — envelope scopes (step/*, which contain
// other instrumented work) stay out so the three fractions never double
// count.
const (
	ClassCompute = "compute"
	ClassWire    = "wire"
	ClassIdle    = "idle"
	ClassOther   = "other"
)

// Class maps a scope name to its breakdown class.
func Class(name string) string {
	switch {
	case hasPrefix(name, "seg/"), name == "actor/accum", name == "actor/add", name == "step/sgd":
		return ClassCompute
	case name == "actor/recv", name == "coll/wait":
		return ClassIdle
	case name == "coll/send", name == "coll/reduce", name == "coll/copy",
		name == "wire/encode", name == "wire/decode":
		return ClassWire
	}
	return ClassOther
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Compact class codes cached per scope at registration (see scopeClass).
const (
	codeOther = iota
	codeCompute
	codeWire
	codeIdle
)

func classCode(name string) int {
	switch Class(name) {
	case ClassCompute:
		return codeCompute
	case ClassWire:
		return codeWire
	case ClassIdle:
		return codeIdle
	}
	return codeOther
}

// BreakdownNow sums the live scope aggregates into the compute/wire/idle
// classes without snapshotting: no lock, no string work, zero allocations.
// It is the per-step read of the telemetry sampler and the profile summary
// (each differences two of these). Values are cumulative since the last
// reset, safe concurrent with recording, and may be mid-update across scopes
// (never within one atomic).
func BreakdownNow() (computeNs, wireNs, idleNs int64) {
	n := int(numScopes.Load())
	for id := 1; id < n; id++ {
		t := scopes[id].total.Load()
		if t == 0 {
			continue
		}
		switch scopeClass[id].Load() {
		case codeCompute:
			computeNs += t
		case codeWire:
			wireNs += t
		case codeIdle:
			idleNs += t
		}
	}
	return computeNs, wireNs, idleNs
}

// CounterNow reads one counter's live value without snapshotting or
// allocating — cumulative since the last reset, safe at any time.
func CounterNow(c CounterID) int64 {
	if c <= 0 || int(c) >= maxCounters {
		return 0
	}
	return counters[c].Load()
}

// Breakdown sums the snapshot's leaf-scope time into the three classes.
func (s *Snapshot) Breakdown() (compute, wire, idle time.Duration) {
	for _, sc := range s.Scopes {
		switch Class(sc.Name) {
		case ClassCompute:
			compute += time.Duration(sc.Total)
		case ClassWire:
			wire += time.Duration(sc.Total)
		case ClassIdle:
			idle += time.Duration(sc.Total)
		}
	}
	return compute, wire, idle
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

// ScopeByName returns a scope's stats from the snapshot (zero value, false if
// absent).
func (s *Snapshot) ScopeByName(name string) (ScopeStats, bool) {
	for _, sc := range s.Scopes {
		if sc.Name == name {
			return sc, true
		}
	}
	return ScopeStats{}, false
}
