package obs

import (
	"sync"
	"testing"
)

func sampleForStep(rank, step int64) StepSample {
	return StepSample{
		Rank: rank, Step: step, WallNs: 1000 + step, ComputeNs: 600, WireNs: 300,
		IdleNs: 100, BytesSent: 1 << 20, BytesRecvd: 1 << 19, QueueDepth: 2,
		PoolHit: 90, PoolMiss: 10, Allocs: 4,
	}
}

func TestRecordStepDisabledIsNoop(t *testing.T) {
	resetStepsForTest()
	DisableSteps()
	RecordStep(sampleForStep(0, 1))
	if got := StepCount(); got != 0 {
		t.Fatalf("disabled RecordStep published %d samples", got)
	}
}

func TestRecordStepZeroAllocs(t *testing.T) {
	resetStepsForTest()
	s := sampleForStep(3, 7)

	DisableSteps()
	if a := testing.AllocsPerRun(1000, func() { RecordStep(s) }); a != 0 {
		t.Fatalf("disabled RecordStep allocates %.1f/op, want 0", a)
	}
	EnableSteps()
	defer DisableSteps()
	if a := testing.AllocsPerRun(1000, func() { RecordStep(s) }); a != 0 {
		t.Fatalf("enabled RecordStep allocates %.1f/op, want 0", a)
	}

	resetStepsForTest()
	for i := int64(0); i < 64; i++ {
		RecordStep(sampleForStep(0, i))
	}
	var cursor int64
	dst := make([]StepSample, 16)
	if a := testing.AllocsPerRun(100, func() {
		cursor = 0
		for ReadStepsSince(&cursor, dst) > 0 {
		}
	}); a != 0 {
		t.Fatalf("ReadStepsSince allocates %.1f/op, want 0", a)
	}
}

func TestReadStepsSinceDrains(t *testing.T) {
	resetStepsForTest()
	EnableSteps()
	defer DisableSteps()

	const total = 100
	for i := int64(0); i < total; i++ {
		RecordStep(sampleForStep(i%4, i))
	}
	var cursor int64
	var got []StepSample
	dst := make([]StepSample, 33)
	for {
		n := ReadStepsSince(&cursor, dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if len(got) != total {
		t.Fatalf("drained %d samples, want %d", len(got), total)
	}
	for i, s := range got {
		want := sampleForStep(int64(i)%4, int64(i))
		if s != want {
			t.Fatalf("sample %d = %+v, want %+v", i, s, want)
		}
	}
	if cursor != total {
		t.Fatalf("cursor = %d, want %d", cursor, total)
	}
	// Nothing new: no samples, cursor stays put.
	if n := ReadStepsSince(&cursor, dst); n != 0 {
		t.Fatalf("second drain returned %d samples, want 0", n)
	}
}

func TestReadStepsSinceAfterWrap(t *testing.T) {
	resetStepsForTest()
	EnableSteps()
	defer DisableSteps()

	const total = StepRingCap + 200
	for i := int64(0); i < total; i++ {
		RecordStep(sampleForStep(1, i))
	}
	// A cursor at zero is far behind; the reader must skip to the oldest
	// resident sample and still return strictly increasing steps.
	var cursor int64
	var got []StepSample
	dst := make([]StepSample, 256)
	for {
		n := ReadStepsSince(&cursor, dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if len(got) != StepRingCap {
		t.Fatalf("drained %d samples after wrap, want %d", len(got), StepRingCap)
	}
	if first := got[0].Step; first != total-StepRingCap {
		t.Fatalf("oldest resident step = %d, want %d", first, total-StepRingCap)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Step != got[i-1].Step+1 {
			t.Fatalf("steps not consecutive at %d: %d then %d", i, got[i-1].Step, got[i].Step)
		}
	}
}

// TestStepRingConcurrent hammers the ring with concurrent writers and a
// reader; under -race this pins that the seqlock protocol is data-race-free,
// and functionally that every accepted sample is internally consistent.
func TestStepRingConcurrent(t *testing.T) {
	resetStepsForTest()
	EnableSteps()
	defer DisableSteps()

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rank int64) {
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				// Every field derived from Step so the reader can detect a
				// torn sample that mixed two tickets' words.
				RecordStep(StepSample{
					Rank: rank, Step: i, WallNs: i * 3, ComputeNs: i * 5,
					WireNs: i * 7, IdleNs: i * 11, BytesSent: i * 13,
					BytesRecvd: i * 17, QueueDepth: i * 19, PoolHit: i * 23,
					PoolMiss: i * 29, Allocs: i * 31,
				})
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor int64
		dst := make([]StepSample, 512)
		for {
			n := ReadStepsSince(&cursor, dst)
			for _, s := range dst[:n] {
				i := s.Step
				if s.WallNs != i*3 || s.ComputeNs != i*5 || s.WireNs != i*7 ||
					s.IdleNs != i*11 || s.BytesSent != i*13 || s.BytesRecvd != i*17 ||
					s.QueueDepth != i*19 || s.PoolHit != i*23 || s.PoolMiss != i*29 ||
					s.Allocs != i*31 {
					t.Errorf("torn sample accepted: %+v", s)
					return
				}
			}
			if n == 0 && StepCount() == writers*perWriter {
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestPoolHitPct(t *testing.T) {
	s := StepSample{PoolHit: 3, PoolMiss: 1}
	if got := s.PoolHitPct(); got != 75 {
		t.Fatalf("PoolHitPct = %v, want 75", got)
	}
	zero := StepSample{}
	if got := zero.PoolHitPct(); got != 0 {
		t.Fatalf("PoolHitPct of empty sample = %v, want 0", got)
	}
}
