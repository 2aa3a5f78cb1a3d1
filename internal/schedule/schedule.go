// Package schedule implements pipeline schedules for gradient accumulation:
// GPipe, 1F1B, and Interleaved 1F1B (circular repeat), plus user-defined
// schedules as per-actor task lists exactly as in §4.2 of the paper.
//
// Replay is the one execution model of a schedule: the dependency rule
// (F(mb, s) waits for F(mb, s−1); B(mb, s) waits for F(mb, s) and
// B(mb, s+1)) applied to a cooperative, actor-ordered run of the lists.
// Validate proves it drains, PeakInFlight and BubbleFraction measure it,
// taskgraph unrolls it into send/recv order, timeline draws it and sim
// times it.
package schedule

import (
	"fmt"
	"strings"
)

// TaskType distinguishes forward and backward pipeline tasks.
type TaskType int

const (
	Forward TaskType = iota
	Backward
)

func (t TaskType) String() string {
	if t == Forward {
		return "fwd"
	}
	return "bwd"
}

// Entry is one task in an actor's local schedule: run TaskType for stage
// Stage on microbatch MB — the Task(i=..., ty=..., stage=...) triple of §4.2.
type Entry struct {
	MB    int
	Stage int
	Type  TaskType
}

func (e Entry) String() string {
	return fmt.Sprintf("Task(i=%d, ty=%q, stage=%d)", e.MB, e.Type, e.Stage)
}

// Schedule assigns every (microbatch, stage, type) task to an actor and gives
// each actor a total order over its tasks.
type Schedule struct {
	Name       string
	NumActors  int
	NumStages  int // total pipeline stages (NumActors × circular repeat)
	NumMB      int // microbatches per training step
	StageActor []int
	Actors     [][]Entry
}

// roundRobinStages assigns stage v*A+a to actor a (circular placement).
func roundRobinStages(actors, stages int) []int {
	sa := make([]int, stages)
	for st := range sa {
		sa[st] = st % actors
	}
	return sa
}

// atLeastOne returns an error naming the first of the space-separated
// names whose size is below 1.
func atLeastOne(names string, sizes ...int) error {
	for i, name := range strings.Fields(names) {
		if sizes[i] < 1 {
			return fmt.Errorf("schedule: %s must be >= 1, got %d", name, sizes[i])
		}
	}
	return nil
}

// newSchedule is the one-stage-per-actor frame GPipe and OneFOneB fill in:
// actor a owns stage a and gets an empty task list. A size below 1 keeps its
// value, for Validate to refuse by name, but builds nothing.
func newSchedule(name string, actors, microbatches int) *Schedule {
	n := max(actors, 0)
	return &Schedule{
		Name:       name,
		NumActors:  actors,
		NumStages:  actors,
		NumMB:      microbatches,
		StageActor: roundRobinStages(actors, n),
		Actors:     make([][]Entry, n),
	}
}

// GPipe builds the GPipe schedule (Huang et al. 2019): every actor runs all
// forward microbatches for its stage, then all backward microbatches.
// Memory grows with the number of microbatches.
func GPipe(actors, microbatches int) *Schedule {
	s := newSchedule("gpipe", actors, microbatches)
	for a := 0; a < actors; a++ {
		for mb := 0; mb < microbatches; mb++ {
			s.Actors[a] = append(s.Actors[a], Entry{MB: mb, Stage: a, Type: Forward})
		}
		for mb := 0; mb < microbatches; mb++ {
			s.Actors[a] = append(s.Actors[a], Entry{MB: mb, Stage: a, Type: Backward})
		}
	}
	return s
}

// OneFOneB builds the 1F1B schedule (Narayanan et al. 2019): after a warmup
// of (S - a - 1) forwards, actor a alternates one-forward-one-backward,
// bounding in-flight activations by the stage count instead of the
// microbatch count.
func OneFOneB(actors, microbatches int) *Schedule {
	s := newSchedule("1f1b", actors, microbatches)
	for a := 0; a < actors; a++ {
		warmup := actors - a - 1
		if warmup > microbatches {
			warmup = microbatches
		}
		var list []Entry
		for mb := 0; mb < warmup; mb++ {
			list = append(list, Entry{MB: mb, Stage: a, Type: Forward})
		}
		nextF, nextB := warmup, 0
		for nextF < microbatches || nextB < microbatches {
			if nextF < microbatches {
				list = append(list, Entry{MB: nextF, Stage: a, Type: Forward})
				nextF++
			}
			if nextB < microbatches {
				list = append(list, Entry{MB: nextB, Stage: a, Type: Backward})
				nextB++
			}
		}
		s.Actors[a] = list
	}
	return s
}

// Interleaved1F1B builds the interleaved 1F1B schedule (Narayanan et al.
// 2021): each actor owns `repeat` stages (the circular repeat / number of
// model chunks), reducing the pipeline bubble at the cost of more, smaller
// tasks and more P2P communication. The ordering follows Megatron-LM's
// virtual-pipeline schedule. The number of microbatches must be a multiple
// of the actor count.
func Interleaved1F1B(actors, microbatches, repeat int) (*Schedule, error) {
	if err := atLeastOne("actors microbatches repeat", actors, microbatches, repeat); err != nil {
		return nil, err
	}
	if microbatches%actors != 0 {
		return nil, fmt.Errorf("schedule: interleaved 1F1B needs microbatches (%d) divisible by actors (%d)", microbatches, actors)
	}
	if repeat == 1 {
		s := OneFOneB(actors, microbatches)
		s.Name = "interleaved_1f1b(r=1)"
		return s, nil
	}
	stages := actors * repeat
	s := &Schedule{
		Name:       fmt.Sprintf("interleaved_1f1b(r=%d)", repeat),
		NumActors:  actors,
		NumStages:  stages,
		NumMB:      microbatches,
		StageActor: roundRobinStages(actors, stages),
	}
	s.Actors = make([][]Entry, actors)

	total := microbatches * repeat // virtual iterations per direction
	group := actors * repeat

	// chunk/mb decoding per Megatron's get_model_chunk_id.
	chunkOf := func(it int, forward bool) int {
		inGroup := it % group
		c := inGroup / actors
		if !forward {
			c = repeat - c - 1
		}
		return c
	}
	mbOf := func(it int) int {
		return (it/group)*actors + it%actors
	}

	for a := 0; a < actors; a++ {
		warmup := (actors-a-1)*2 + (repeat-1)*actors
		if warmup > total {
			warmup = total
		}
		var list []Entry
		f, b := 0, 0
		for ; f < warmup; f++ {
			c := chunkOf(f, true)
			list = append(list, Entry{MB: mbOf(f), Stage: c*actors + a, Type: Forward})
		}
		for f < total {
			c := chunkOf(f, true)
			list = append(list, Entry{MB: mbOf(f), Stage: c*actors + a, Type: Forward})
			f++
			cb := chunkOf(b, false)
			list = append(list, Entry{MB: mbOf(b), Stage: cb*actors + a, Type: Backward})
			b++
		}
		for b < total {
			cb := chunkOf(b, false)
			list = append(list, Entry{MB: mbOf(b), Stage: cb*actors + a, Type: Backward})
			b++
		}
		s.Actors[a] = list
	}
	return s, nil
}

// FromLists builds a user-defined schedule from explicit per-actor task
// lists (§4.2). StageActor is inferred from the forward entries.
func FromLists(name string, numStages, numMB int, actors [][]Entry) (*Schedule, error) {
	if err := atLeastOne("numStages numMB actors", numStages, numMB, len(actors)); err != nil {
		return nil, err
	}
	s := &Schedule{
		Name:      name,
		NumActors: len(actors),
		NumStages: numStages,
		NumMB:     numMB,
		Actors:    actors,
	}
	s.StageActor = make([]int, numStages)
	for i := range s.StageActor {
		s.StageActor[i] = -1
	}
	for a, list := range actors {
		for _, e := range list {
			if e.Stage < 0 || e.Stage >= numStages {
				return nil, fmt.Errorf("schedule: actor %d has out-of-range stage %d", a, e.Stage)
			}
			if e.Type == Forward {
				if cur := s.StageActor[e.Stage]; cur != -1 && cur != a {
					return nil, fmt.Errorf("schedule: stage %d scheduled on actors %d and %d", e.Stage, cur, a)
				}
				s.StageActor[e.Stage] = a
			}
		}
	}
	for st, a := range s.StageActor {
		if a == -1 {
			return nil, fmt.Errorf("schedule: stage %d never scheduled", st)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
