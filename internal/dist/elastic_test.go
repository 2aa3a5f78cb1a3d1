package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestSessionOptionDefaults pins the tuning contract flags and JobSpecs rely
// on: the package defaults themselves, and the interval×misses derivation of
// the heartbeat timeout.
func TestSessionOptionDefaults(t *testing.T) {
	var o SessionOptions
	o.fill()
	if o.HeartbeatInterval != 1*time.Second {
		t.Fatalf("default heartbeat interval %v, want 1s", o.HeartbeatInterval)
	}
	if o.HeartbeatMisses != 5 {
		t.Fatalf("default heartbeat misses %d, want 5", o.HeartbeatMisses)
	}
	if o.HeartbeatTimeout != 5*time.Second {
		t.Fatalf("default heartbeat timeout %v, want 5s (interval × misses)", o.HeartbeatTimeout)
	}
	if o.JoinGrace != 3*time.Second {
		t.Fatalf("default join grace %v, want 3s", o.JoinGrace)
	}
	if o.RendezvousTimeout != 60*time.Second {
		t.Fatalf("default rendezvous timeout %v, want 60s", o.RendezvousTimeout)
	}

	o = SessionOptions{HeartbeatInterval: 100 * time.Millisecond, HeartbeatMisses: 3}
	o.fill()
	if o.HeartbeatTimeout != 300*time.Millisecond {
		t.Fatalf("derived heartbeat timeout %v, want interval × misses = 300ms", o.HeartbeatTimeout)
	}
	// An explicit timeout wins over the derivation.
	o = SessionOptions{HeartbeatTimeout: 2 * time.Second, HeartbeatMisses: 100}
	o.fill()
	if o.HeartbeatTimeout != 2*time.Second {
		t.Fatalf("explicit heartbeat timeout overridden: %v", o.HeartbeatTimeout)
	}
}

// TestWelcomeConfiguresTheWorld: a worker joins with CRC off and a one-minute
// heartbeat against a coordinator with CRC on and a 50 ms × 4 heartbeat. It
// adopts the coordinator's settings from the welcome: a second later the
// coordinator's transport is healthy, the worker's appends CRC trailers, and
// the worker declares a silent coordinator dead after 200 ms, not 5 minutes.
func TestWelcomeConfiguresTheWorld(t *testing.T) {
	coordOpts := SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   4,
		Transport:         Options{CRC: true, RecvTimeout: 10 * time.Second},
	}
	workerOpts := SessionOptions{RendezvousTimeout: 20 * time.Second, HeartbeatInterval: time.Minute}
	addr := freeAddr(t)
	var coord *Session
	var coordErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord, coordErr = Coordinate(addr, 2, nil, coordOpts)
	}()
	worker, err := joinRetry(addr, workerOpts)
	<-done
	if coordErr != nil || err != nil {
		t.Fatalf("bootstrap: coordinator %v, worker %v", coordErr, err)
	}
	defer coord.Close()
	defer worker.Close()
	time.Sleep(time.Second)
	if err := coord.Transport.Err(); err != nil {
		t.Fatalf("coordinator transport poisoned: %v", err)
	}
	if !worker.Transport.opts.CRC {
		t.Fatal("worker transport kept CRC off against a CRC coordinator")
	}
	if got := worker.opts; got.HeartbeatInterval != 50*time.Millisecond || got.HeartbeatTimeout != 200*time.Millisecond {
		t.Fatalf("worker heartbeat interval %v, timeout %v; want the coordinator's 50ms, 200ms", got.HeartbeatInterval, got.HeartbeatTimeout)
	}
}

// flexOpts is the fast tuning the flexible-rendezvous tests share.
func flexOpts() SessionOptions {
	return SessionOptions{
		RendezvousTimeout: 20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		JoinGrace:         300 * time.Millisecond,
		Transport:         Options{RecvTimeout: 10 * time.Second},
	}
}

func joinRetry(addr string, o SessionOptions) (*Session, error) {
	var s *Session
	var err error
	for i := 0; i < 150; i++ {
		s, err = Join(addr, o)
		if err == nil || !strings.Contains(err.Error(), "connect") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return s, err
}

// TestFlexibleRendezvousFormsSmallerWorld: a coordinator asking for up to 4
// processes but accepting 2 forms a 2-world once the join-grace window
// expires with only one worker present — the elastic reform path.
func TestFlexibleRendezvousFormsSmallerWorld(t *testing.T) {
	opts := flexOpts()
	opts.MinWorld = 2
	addr := freeAddr(t)

	var worker *Session
	var workerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		worker, workerErr = joinRetry(addr, opts)
	}()
	var sawProcs int
	sess, err := CoordinateFlexible(addr, 4, opts, func(procs int) (int, []byte) {
		sawProcs = procs
		return procs, []byte(`{"n":1}`)
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("flexible coordinate: %v", err)
	}
	defer sess.Close()
	if workerErr != nil {
		t.Fatalf("worker join: %v", workerErr)
	}
	defer worker.Close()
	if sawProcs != 2 || sess.World != 2 || worker.World != 2 {
		t.Fatalf("formed world %d/%d (jobFor saw %d procs), want 2", sess.World, worker.World, sawProcs)
	}
	if worker.Rank != 1 {
		t.Fatalf("worker seated at rank %d, want 1", worker.Rank)
	}
	if string(sess.Job) != `{"n":1}` || string(worker.Job) != `{"n":1}` {
		t.Fatalf("job payloads %q / %q", sess.Job, worker.Job)
	}
}

// TestFlexibleRendezvousReleasesSurplus: when jobFor sizes the world below
// the joined pool, the unseated workers get a clean release (ErrReleased),
// not a failure, and the seated world trains normally.
func TestFlexibleRendezvousReleasesSurplus(t *testing.T) {
	opts := flexOpts()
	opts.MinWorld = 4
	addr := freeAddr(t)

	const joiners = 3
	errs := make([]error, joiners)
	var wg sync.WaitGroup
	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := joinRetry(addr, opts)
			errs[w] = err
			if s != nil {
				t.Cleanup(func() { s.Close() })
			}
		}(w)
	}
	sess, err := CoordinateFlexible(addr, 4, opts, func(procs int) (int, []byte) {
		if procs != 4 {
			t.Errorf("jobFor saw %d procs, want 4", procs)
		}
		return 2, nil // seat half the pool
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("flexible coordinate: %v", err)
	}
	defer sess.Close()
	if sess.World != 2 {
		t.Fatalf("world %d, want 2", sess.World)
	}
	released := 0
	for w, jerr := range errs {
		if jerr == nil {
			continue
		}
		if !errors.Is(jerr, ErrReleased) {
			t.Fatalf("worker %d join failed with %v, want ErrReleased", w, jerr)
		}
		released++
	}
	if released != 2 {
		t.Fatalf("%d workers released, want 2", released)
	}
}

// TestCoordinatorFailureFanOutOrdering pins the fan-out sequence a worker
// death triggers: the coordinator poisons its own data plane first (fail sees
// Transport.Poison before any control sends), then relays the failure to
// every surviving worker, whose transports poison with the coordinator-
// reported cause even though no data-plane stream from the victim exists.
func TestCoordinatorFailureFanOutOrdering(t *testing.T) {
	sessions := testWorld(t, 4, nil)
	coord := sessions[0]

	sessions[3].Abort() // SIGKILL-faithful: both planes slam shut, no goodbye

	waitPoisoned := func(s *Session, who string) error {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if err := s.Transport.Err(); err != nil {
				return err
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s transport never poisoned after worker death", who)
		return nil
	}
	coordErr := waitPoisoned(coord, "coordinator")
	if !strings.Contains(coordErr.Error(), "rank 3") {
		t.Fatalf("coordinator poison cause %q does not name the dead rank", coordErr)
	}
	// Survivors 1 and 2 have no direct data-plane stream from rank 3; only
	// the coordinator's fail relay can poison them — and because fail poisons
	// the coordinator before sending, the relayed cause must already carry
	// the dead rank's identity.
	for _, r := range []int{1, 2} {
		err := waitPoisoned(sessions[r], "survivor")
		if !strings.Contains(err.Error(), "coordinator reported failure") && !strings.Contains(err.Error(), "rank 3") {
			t.Fatalf("rank %d poison cause %q is neither a relay nor names the dead rank", r, err)
		}
	}
}

// TestPoisonPropagationUnderConcurrentSends hammers a transport with
// concurrent senders while the peer dies abruptly, under the race detector:
// sends must stay safe (no panic, no race) against the asynchronous poison,
// every pending and future receive must error, and the poison cause must
// stick (first writer wins, not last).
func TestPoisonPropagationUnderConcurrentSends(t *testing.T) {
	a, err := NewTransport(0, Options{RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTransport(1, Options{RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	book := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.Connect(book)
	b.Connect(book)

	// Establish the a→b stream so the senders write into a live conn.
	a.Send(0, 1, 1, tensor.Scalar(1))
	if got, err := b.Recv(1, 0, 1); err != nil {
		t.Fatal(err)
	} else {
		tensor.Recycle(got)
	}

	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSender; i++ {
				// Unique tags: nothing ever receives these; the point is the
				// sender worker racing the poison.
				a.Send(0, 1, 10_000+g*perSender+i, tensor.Scalar(float64(i)))
			}
		}(g)
	}
	// The queue-depth gauge must stay readable while TryPut races the
	// teardown: hammer QueueDepth concurrently with the senders and the
	// poison (the race detector turns an unsynchronized read into a failure).
	depthStop := make(chan struct{})
	depthDone := make(chan struct{})
	go func() {
		defer close(depthDone)
		for {
			if d := a.QueueDepth(); d < 0 {
				t.Error("negative queue depth")
				return
			}
			select {
			case <-depthStop:
				return
			default:
			}
		}
	}()
	close(start)
	b.Abort() // peer dies mid-hammer
	wg.Wait()
	close(depthStop)
	<-depthDone

	// A send into a dead peer must have poisoned a (the sender worker's write
	// fails); poll briefly since the mailbox drains asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for a.Err() == nil && time.Now().Before(deadline) {
		a.Send(0, 1, 5, tensor.Scalar(9)) // keep traffic flowing at the broken conn
		time.Sleep(10 * time.Millisecond)
	}
	first := a.Err()
	if first == nil {
		t.Fatal("transport never poisoned despite sends into a dead peer")
	}
	if _, err := a.Recv(0, 1, 99); err == nil {
		t.Fatal("recv succeeded on a poisoned transport")
	}
	// Poison cause is stable: later failures must not overwrite the first.
	a.Poison(errors.New("late cause"))
	if got := a.Err(); got == nil || got.Error() != first.Error() {
		t.Fatalf("poison cause changed from %q to %q", first, got)
	}
}

// TestReleaseStragglersAnswersLateJoiner: a worker still dialing the
// rendezvous after the job finished gets a clean release (ErrReleased) from
// the coordinator's post-completion drain window, instead of grinding
// through failed joins against a dead address. This is the straggler path of
// the elastic reform: a survivor that missed the join-grace window when the
// world reformed smaller.
func TestReleaseStragglersAnswersLateJoiner(t *testing.T) {
	opts := flexOpts()
	addr := freeAddr(t)

	var joinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// joinRetry keeps dialing while the drain listener comes up, exactly
		// like a straggler's in-Join retry loop.
		var s *Session
		s, joinErr = joinRetry(addr, opts)
		if s != nil {
			s.Close()
		}
	}()

	released := ReleaseStragglers(addr, 2*time.Second)
	wg.Wait()
	if released != 1 {
		t.Fatalf("released %d workers, want 1", released)
	}
	if !errors.Is(joinErr, ErrReleased) {
		t.Fatalf("straggler join error %v, want ErrReleased", joinErr)
	}

	// An empty window (nobody dials) returns promptly with zero releases.
	start := time.Now()
	if n := ReleaseStragglers(addr, 200*time.Millisecond); n != 0 {
		t.Fatalf("idle drain released %d workers, want 0", n)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("idle drain took %v, want ~the 200ms window", since)
	}
}

// oldHelloAddr is the book address a build with a loopback-TCP data plane
// reports; its hello and welcome carry no data-plane network.
const oldHelloAddr = "127.0.0.1:40000"

// TestCoordinatorRefusesOtherNetworkHello: a hello from a build whose data
// plane is not a Unix-domain socket is answered with a fail naming the
// mismatch instead of being put in the book, and the rendezvous goes on to
// seat the next worker.
func TestCoordinatorRefusesOtherNetworkHello(t *testing.T) {
	opts := flexOpts()
	addr := freeAddr(t)
	type result struct {
		s   *Session
		err error
	}
	coord := make(chan result, 1)
	go func() {
		s, err := Coordinate(addr, 2, []byte(`{}`), opts)
		coord <- result{s, err}
	}()

	var conn net.Conn
	var err error
	for i := 0; i < 150; i++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cc := newCtrlConn(conn)
	if err := cc.send(ctrlMsg{Type: "hello", Addr: oldHelloAddr}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := cc.read()
	if err != nil {
		t.Fatalf("awaiting the answer to an old-style hello: %v", err)
	}
	if m.Type != "fail" || !strings.Contains(m.Err, `data-plane network mismatch: the worker's is "", this rank's is "unix"`) {
		t.Fatalf("old-style hello answered with %s %q, want a fail naming the network mismatch", m.Type, m.Err)
	}

	worker, err := joinRetry(addr, opts)
	if err != nil {
		t.Fatalf("a current worker after the refused one: %v", err)
	}
	defer worker.Close()
	r := <-coord
	if r.err != nil {
		t.Fatalf("coordinate: %v", r.err)
	}
	defer r.s.Close()
	if got, want := r.s.Transport.book[1], worker.Transport.Addr(); got != want {
		t.Fatalf("book seats %q at rank 1, want the current worker's %q", got, want)
	}
}

// TestCoordinatorAbortsPromptlyWhenEveryHelloIsRefused: a rendezvous whose
// every seat was claimed by a hello it refused (here old-style hellos, with no
// data-plane network) waits only the join grace after the last one, not its
// whole timeout, and its error names each refusal and why.
func TestCoordinatorAbortsPromptlyWhenEveryHelloIsRefused(t *testing.T) {
	const world = 3
	opts := flexOpts()
	opts.RendezvousTimeout = 30 * time.Second
	opts.JoinGrace = 200 * time.Millisecond
	addr := freeAddr(t)
	coord := make(chan error, 1)
	start := time.Now()
	go func() {
		s, err := Coordinate(addr, world, []byte(`{}`), opts)
		if s != nil {
			s.Close()
		}
		coord <- err
	}()

	for w := 0; w < world-1; w++ {
		var conn net.Conn
		var err error
		for i := 0; i < 150; i++ {
			if conn, err = net.Dial("tcp", addr); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		cc := newCtrlConn(conn)
		if err := cc.send(ctrlMsg{Type: "hello", Addr: oldHelloAddr}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if m, err := cc.read(); err != nil || m.Type != "fail" {
			t.Fatalf("old-style hello %d answered with %+v, %v; want a fail", w, m, err)
		}
	}

	select {
	case err := <-coord:
		if err == nil || !strings.Contains(err.Error(), "data-plane network mismatch") ||
			!strings.Contains(err.Error(), fmt.Sprintf("refused %d", world-1)) {
			t.Fatalf("coordinate: %v, want an abort naming %d network-mismatch refusals", err, world-1)
		}
		if since := time.Since(start); since > 2*time.Second {
			t.Fatalf("coordinate returned after %v, want within 2s", since)
		}
		t.Logf("aborted after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(2 * time.Second):
		t.Fatal("coordinate still waiting 2s after every seat's hello was refused")
	}
}

// TestJoinRefusesOtherNetworkWelcome: a worker whose coordinator's welcome
// names no data-plane network (a loopback-TCP build's) refuses it by name
// instead of dialing a book it cannot reach.
func TestJoinRefusesOtherNetworkWelcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	joined := make(chan error, 1)
	go func() {
		s, err := Join(ln.Addr().String(), flexOpts())
		if s != nil {
			s.Close()
		}
		joined <- err
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cc := newCtrlConn(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := cc.read()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Type != "hello" || hello.Net != "unix" {
		t.Fatalf("worker sent %s on network %q, want a hello on \"unix\"", hello.Type, hello.Net)
	}
	welcome := ctrlMsg{Type: "welcome", World: 2, Rank: 1, Book: map[int]string{0: oldHelloAddr, 1: hello.Addr}}
	if err := cc.send(welcome); err != nil {
		t.Fatal(err)
	}
	err = <-joined
	if err == nil || !strings.Contains(err.Error(), `refusing welcome: data-plane network mismatch: the coordinator's is "", this rank's is "unix"`) {
		t.Fatalf("Join with an old-style welcome: %v, want a refusal naming the network mismatch", err)
	}
}
