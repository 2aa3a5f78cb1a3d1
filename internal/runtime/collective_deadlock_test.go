package runtime

import (
	"strings"
	"testing"
	"time"
)

// TestCollectiveDeadlockSurfacesAsError is the collective-engine companion
// to the Fig. 5 pipeline deadlock tests: a ring collective missing one
// participant (here simulated by an actor whose matching send never happens)
// must fail with a timeout error on the stuck rank rather than hanging the
// whole step. The collective engine drives exactly this Recv path, so
// bounding it here bounds every ring primitive.
func TestCollectiveDeadlockSurfacesAsError(t *testing.T) {
	c := NewChanTransport()
	c.RecvTimeout = 50 * time.Millisecond
	// Rank 1 of a would-be 2-ring waits for its predecessor's chunk, but
	// rank 0 never joined the collective.
	start := time.Now()
	_, err := c.Recv(1, 0, 1<<20 /* a collective-space tag */)
	if err == nil {
		t.Fatal("missing participant must surface as an error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("error took %v, timeout not honored", elapsed)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error should mention the deadlock hazard: %v", err)
	}
}
