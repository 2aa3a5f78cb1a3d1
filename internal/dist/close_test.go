package dist

import (
	"bytes"
	"testing"
	"time"
)

// TestCoordinateBindsControlBeforeDataPlane is the regression test for the
// listener order in CoordinateFlexible: callers pick the control address by
// probing ":0" and releasing it, so the data plane must not be handed that
// very port. It holds no TCP port at all: its listener is a Unix-domain
// socket.
func TestCoordinateBindsControlBeforeDataPlane(t *testing.T) {
	for i := 0; i < 400; i++ {
		ctrl := freeAddr(t)
		s, err := Coordinate(ctrl, 1, nil, SessionOptions{})
		if err != nil {
			t.Fatalf("attempt %d: Coordinate on released port %s: %v", i, ctrl, err)
		}
		data := s.Transport.ln.Addr()
		s.Close()
		if data.Network() != "unix" {
			t.Fatalf("attempt %d: data plane listens on %s %s, want a Unix-domain socket", i, data.Network(), data)
		}
	}
}

// TestGracefulCloseDeliversProfiles is the regression test for Session.close
// resetting the control conn: a worker that sends its profile and closes at
// once, while coordinator pings sit unread in its receive buffer (1 ms
// heartbeats guarantee that), must still deliver every byte. The profile is
// larger than the socket buffers, so part of it is unsent when Close runs.
func TestGracefulCloseDeliversProfiles(t *testing.T) {
	opts := SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
	}
	// Prof travels as raw JSON: a 4 MiB string literal.
	profile := append(append([]byte{'"'}, bytes.Repeat([]byte("profile-"), 1<<19)...), '"')
	for i := 0; i < 50; i++ {
		ctrl := freeAddr(t)
		workerErr := make(chan error, 1)
		go func() {
			w, err := Join(ctrl, opts)
			if err != nil {
				workerErr <- err
				return
			}
			defer w.Close()
			if err := w.Barrier(0); err != nil {
				workerErr <- err
				return
			}
			workerErr <- w.SendProfile(profile)
		}()
		c, err := Coordinate(ctrl, 2, nil, opts)
		if err != nil {
			t.Fatalf("session %d: coordinate: %v", i, err)
		}
		if err := c.Barrier(0); err != nil {
			t.Fatalf("session %d: barrier: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond) // the coordinator is busy; the worker is already closing
		got, err := c.GatherProfiles()
		if err != nil {
			t.Fatalf("session %d: gather profiles: %v", i, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], profile) {
			t.Fatalf("session %d: profile arrived damaged (%d snapshots)", i, len(got))
		}
		if err := <-workerErr; err != nil {
			t.Fatalf("session %d: worker: %v", i, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("session %d: close: %v", i, err)
		}
	}
}
