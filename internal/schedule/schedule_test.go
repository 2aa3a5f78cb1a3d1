package schedule

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGPipeValidates(t *testing.T) {
	for _, cfg := range [][2]int{{2, 4}, {3, 6}, {4, 8}, {8, 32}} {
		s := GPipe(cfg[0], cfg[1])
		if err := s.Validate(); err != nil {
			t.Fatalf("gpipe(%v): %v", cfg, err)
		}
	}
}

func TestOneFOneBValidates(t *testing.T) {
	for _, cfg := range [][2]int{{2, 4}, {3, 6}, {4, 8}, {8, 32}, {4, 2}} {
		s := OneFOneB(cfg[0], cfg[1])
		if err := s.Validate(); err != nil {
			t.Fatalf("1f1b(%v): %v", cfg, err)
		}
	}
}

func TestInterleavedValidates(t *testing.T) {
	for _, cfg := range [][3]int{{2, 4, 2}, {4, 8, 3}, {8, 32, 6}, {4, 8, 1}, {8, 128, 12}} {
		s, err := Interleaved1F1B(cfg[0], cfg[1], cfg[2])
		if err != nil {
			t.Fatalf("interleaved(%v): %v", cfg, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("interleaved(%v): %v", cfg, err)
		}
		if s.NumStages != cfg[0]*cfg[2] {
			t.Fatalf("interleaved(%v): stages=%d", cfg, s.NumStages)
		}
	}
}

func TestInterleavedRejectsBadConfigs(t *testing.T) {
	for _, c := range []struct {
		actors, mbs, repeat int
		want                string
	}{
		{4, 6, 2, "divisible"},
		{4, 8, 0, "repeat"},
		{0, 4, 2, "actors"},
		{-2, 4, 2, "actors"},
		{2, 0, 2, "microbatches"},
		{2, -4, 2, "microbatches"},
	} {
		if _, err := Interleaved1F1B(c.actors, c.mbs, c.repeat); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Interleaved1F1B(%d, %d, %d) = %v, want an error naming %s", c.actors, c.mbs, c.repeat, err, c.want)
		}
	}
}

func TestFromListsRejectsBadSizes(t *testing.T) {
	one := [][]Entry{{{MB: 0, Stage: 0, Type: Forward}, {MB: 0, Stage: 0, Type: Backward}}}
	for _, c := range []struct {
		stages, mbs int
		actors      [][]Entry
		want        string
	}{
		{-1, 2, nil, "numStages"},
		{0, 2, nil, "numStages"},
		{1, 0, one, "numMB"},
		{1, -1, one, "numMB"},
		{1, 1, nil, "actors"},
	} {
		if _, err := FromLists("x", c.stages, c.mbs, c.actors); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("FromLists(%d stages, %d microbatches, %d lists) = %v, want an error naming %s", c.stages, c.mbs, len(c.actors), err, c.want)
		}
	}
	if _, err := FromLists("x", 1, 1, one); err != nil {
		t.Errorf("FromLists of one actor, one stage, one microbatch: %v", err)
	}
}

// GPipe and OneFOneB keep their signatures: a size below 1 builds nothing
// (no slice of negative length) and Validate refuses it by name.
func TestGeneratorsRefuseBadSizes(t *testing.T) {
	for _, c := range []struct {
		actors, mbs int
		want        string
	}{
		{-1, 2, "actors"},
		{0, 4, "actors"},
		{2, 0, "microbatches"},
		{2, -3, "microbatches"},
	} {
		for _, s := range []*Schedule{GPipe(c.actors, c.mbs), OneFOneB(c.actors, c.mbs)} {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s(%d, %d).Validate() = %v, want an error naming %s", s.Name, c.actors, c.mbs, err, c.want)
			}
		}
	}
}

// Validate checks the owner table against the sizes before it indexes it.
func TestValidateRefusesBadOwners(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(*Schedule)
		want  string
	}{
		{"truncated StageActor", func(s *Schedule) { s.StageActor = s.StageActor[:1] }, "1 stage owners"},
		{"out-of-range owner", func(s *Schedule) { s.StageActor[1] = 2 }, "owned by actor 2"},
		{"negative owner", func(s *Schedule) { s.StageActor[0] = -1 }, "owned by actor -1"},
		{"missing task list", func(s *Schedule) { s.Actors = s.Actors[:1] }, "1 task lists"},
		{"zero stages", func(s *Schedule) { s.NumStages = 0 }, "stages"},
	} {
		s := GPipe(2, 2)
		c.spoil(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// Property: all three generators validate across a sweep of shapes.
func TestGeneratorsValidateProperty(t *testing.T) {
	f := func(seed uint64) bool {
		actors := 2 + int(seed%6)           // 2..7
		mbs := actors * (1 + int(seed/7%8)) // multiple of actors
		repeat := 1 + int(seed/61%4)
		if err := GPipe(actors, mbs).Validate(); err != nil {
			return false
		}
		if err := OneFOneB(actors, mbs).Validate(); err != nil {
			return false
		}
		s, err := Interleaved1F1B(actors, mbs, repeat)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	s := GPipe(2, 2)
	s.Actors[0] = append(s.Actors[0], Entry{MB: 0, Stage: 0, Type: Forward})
	if err := s.Validate(); err == nil {
		t.Fatal("want duplicate-task error")
	}
}

func TestValidateCatchesMissing(t *testing.T) {
	s := GPipe(2, 2)
	s.Actors[1] = s.Actors[1][:len(s.Actors[1])-1]
	if err := s.Validate(); err == nil {
		t.Fatal("want missing-task error")
	}
}

func TestValidateCatchesWrongActor(t *testing.T) {
	s := GPipe(2, 2)
	// Move a backward of stage 1 to actor 0: violates co-location.
	var moved Entry
	for i, e := range s.Actors[1] {
		if e.Type == Backward {
			moved = e
			s.Actors[1] = append(s.Actors[1][:i], s.Actors[1][i+1:]...)
			break
		}
	}
	s.Actors[0] = append(s.Actors[0], moved)
	if err := s.Validate(); err == nil {
		t.Fatal("want co-location error")
	}
}

func TestValidateCatchesDeadlock(t *testing.T) {
	// Actor 0 waits for a backward before producing the forward the
	// downstream actor needs -> cycle.
	actors := [][]Entry{
		{{MB: 0, Stage: 0, Type: Backward}, {MB: 0, Stage: 0, Type: Forward}},
		{{MB: 0, Stage: 1, Type: Forward}, {MB: 0, Stage: 1, Type: Backward}},
	}
	s := &Schedule{Name: "deadlock", NumActors: 2, NumStages: 2, NumMB: 1,
		StageActor: []int{0, 1}, Actors: actors}
	if err := s.Validate(); err == nil {
		t.Fatal("want deadlock error")
	}
}

func TestFromListsRoundTrip(t *testing.T) {
	ref := OneFOneB(3, 6)
	s, err := FromLists("custom", ref.NumStages, ref.NumMB, ref.Actors)
	if err != nil {
		t.Fatal(err)
	}
	if s.StageActor[2] != 2 {
		t.Fatalf("stage actor inference wrong: %v", s.StageActor)
	}
}

func TestPeakInFlightGPipeGrowsWithMicrobatches(t *testing.T) {
	// GPipe stage 0 holds all M activations; 1F1B holds at most S.
	actors := 4
	for _, mbs := range []int{4, 8, 16} {
		gp := GPipe(actors, mbs).PeakInFlight()
		if gp[0] != mbs {
			t.Fatalf("gpipe peak on actor 0 = %d, want %d", gp[0], mbs)
		}
		ob := OneFOneB(actors, mbs).PeakInFlight()
		if ob[0] > actors {
			t.Fatalf("1f1b peak on actor 0 = %d, want <= %d", ob[0], actors)
		}
	}
}

func TestPeakInFlight1F1BLessThanGPipe(t *testing.T) {
	f := func(seed uint64) bool {
		actors := 2 + int(seed%6)
		mbs := actors * (2 + int(seed/7%6))
		gp := GPipe(actors, mbs).PeakInFlight()
		ob := OneFOneB(actors, mbs).PeakInFlight()
		for a := range gp {
			if ob[a] > gp[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBubbleFractionShrinksWithMicrobatches(t *testing.T) {
	actors := 4
	prev := 1.0
	for _, mbs := range []int{4, 8, 16, 32} {
		b := OneFOneB(actors, mbs).BubbleFraction(2)
		if b >= prev {
			t.Fatalf("bubble did not shrink: mbs=%d bubble=%v prev=%v", mbs, b, prev)
		}
		prev = b
	}
}

func TestBubbleFractionTheory(t *testing.T) {
	// For 1F1B with uniform fwd=1, bwd=2: bubble ≈ (S-1)/(M + S - 1) per the
	// standard pipeline analysis. Check within tolerance.
	actors, mbs := 4, 16
	b := OneFOneB(actors, mbs).BubbleFraction(2)
	want := float64(actors-1) / float64(mbs+actors-1)
	if diff := b - want; diff < -0.02 || diff > 0.05 {
		t.Fatalf("1f1b bubble %v, theory %v", b, want)
	}
}

func TestInterleavingReducesBubble(t *testing.T) {
	actors, mbs := 4, 8
	base := OneFOneB(actors, mbs).BubbleFraction(2)
	inter, err := Interleaved1F1B(actors, mbs, 4)
	if err != nil {
		t.Fatal(err)
	}
	bi := inter.BubbleFraction(2)
	if bi >= base {
		t.Fatalf("interleaving should reduce bubble: base=%v interleaved=%v", base, bi)
	}
}

func TestGPipeBubbleExceeds1F1BWithMemoryPressure(t *testing.T) {
	// With uniform task times GPipe and 1F1B have the same bubble; the 1F1B
	// advantage comes from memory (rematerialization), covered by the perf
	// model. Here we only check both are finite and in [0, 1).
	for _, s := range []*Schedule{GPipe(4, 8), OneFOneB(4, 8)} {
		b := s.BubbleFraction(2)
		if b < 0 || b >= 1 {
			t.Fatalf("%s bubble %v out of range", s.Name, b)
		}
	}
}

func TestRepeatAccessor(t *testing.T) {
	s, err := Interleaved1F1B(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if repeat := s.NumStages / s.NumActors; repeat != 3 || s.NumStages != 12 {
		t.Fatalf("repeat=%d over %d stages, want 3 over 12", repeat, s.NumStages)
	}
}

func TestStageActorRoundRobin(t *testing.T) {
	s, err := Interleaved1F1B(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Stages 0,1,2,3 -> actors 0,1,0,1.
	want := []int{0, 1, 0, 1}
	for st, a := range s.StageActor {
		if a != want[st] {
			t.Fatalf("stage %d on actor %d want %d", st, a, want[st])
		}
	}
}
