package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Rendezvous: one process is elected coordinator (by convention the rank-0
// training process); every worker dials its control address, reports its
// data-plane listen address, and receives back a rank, the world size, the
// full address book, the job payload, and the coordinator's heartbeat and CRC
// settings, which it adopts. A start barrier follows, so no rank begins its
// program before every data-plane listener is reachable.
// After bootstrap the control connections stay open carrying heartbeats:
// a vanished or wedged process is detected within HeartbeatTimeout and the
// data transport is poisoned on every surviving rank — pending receives
// surface an error instead of hanging the training job.

// Control-plane message. One JSON object per line.
type ctrlMsg struct {
	Type string `json:"type"` // hello, welcome, ready, start, ping, pong, barrier, barrier_ok, prof, bye, fail, release
	Addr string `json:"addr,omitempty"`
	// Net is the network of the sender's data plane ("unix") in a hello and
	// a welcome. Both ends must agree: a build whose data plane is another
	// network reports book addresses this one cannot dial, and it leaves
	// Net out.
	Net  string `json:"net,omitempty"`
	Rank int    `json:"rank,omitempty"`
	// WantRank is the worker's requested rank in a hello; -1 lets the
	// coordinator assign arrival order.
	WantRank int             `json:"want_rank,omitempty"`
	World    int             `json:"world,omitempty"`
	Book     map[int]string  `json:"book,omitempty"`
	Job      json.RawMessage `json:"job,omitempty"`
	// Step is the step a rank is at when it reaches a barrier (see Barrier).
	Step int `json:"step,omitempty"`
	// Prof carries a worker's end-of-job profile snapshot to the coordinator
	// (see SendProfile/GatherProfiles).
	Prof json.RawMessage `json:"prof,omitempty"`
	// Steps piggybacks the step samples a worker recorded since its last
	// heartbeat onto its ping — the telemetry plane streams without a new
	// message kind or extra round trips. Absent unless new samples exist.
	Steps []obs.StepSample `json:"steps,omitempty"`
	// HBInterval, HBTimeout and CRC ride the welcome: the coordinator's
	// heartbeat and wire settings, which every worker adopts, so one set of
	// flags configures the whole world.
	HBInterval time.Duration `json:"hb_interval,omitempty"`
	HBTimeout  time.Duration `json:"hb_timeout,omitempty"`
	CRC        bool          `json:"crc,omitempty"`
	Err        string        `json:"err,omitempty"`
}

const (
	// HeartbeatInterval is how often liveness pings travel each control conn.
	HeartbeatInterval = 1 * time.Second
	// DefaultHeartbeatMisses is how many silent intervals a peer is granted
	// before it is declared dead: slow CI machines jitter, dead processes
	// don't. The effective timeout is interval × misses.
	DefaultHeartbeatMisses = 5
	// DefaultJoinGrace is how long a flexible rendezvous keeps admitting
	// late joiners once the minimum world has formed; the window restarts on
	// every join, so a steadily arriving pool is never cut off mid-stream.
	DefaultJoinGrace = 3 * time.Second
)

// ErrReleased is returned by Join when the coordinator formed a smaller world
// than the joined pool and this worker was not seated — a clean "not needed",
// not a failure. Elastic workers exit 0 on it.
var ErrReleased = errors.New("dist: released by coordinator (not needed in the formed world)")

// SessionOptions configures bootstrap. A worker takes the heartbeat settings
// and Transport.CRC from the coordinator's welcome, whatever it set itself.
type SessionOptions struct {
	// Transport options for the data plane.
	Transport Options
	// RendezvousTimeout bounds the whole bootstrap (default 60s).
	RendezvousTimeout time.Duration
	// HeartbeatInterval / HeartbeatTimeout override the defaults (tests use
	// short ones). Zero keeps the package defaults; a zero HeartbeatTimeout
	// is derived as HeartbeatInterval × HeartbeatMisses.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// HeartbeatMisses is the miss threshold the timeout is derived from when
	// HeartbeatTimeout is zero (default DefaultHeartbeatMisses).
	HeartbeatMisses int
	// WantRank requests a specific rank when joining (-1 or 0-value accepts
	// coordinator assignment; Join treats 0 as "any" since rank 0 is the
	// coordinator itself).
	WantRank int
	// MinWorld is the smallest world a flexible rendezvous may form
	// (CoordinateFlexible only; zero means the full requested world, i.e.
	// strict). JoinGrace is how long to keep admitting joiners once MinWorld
	// is met, or once as many hellos as seats have arrived with some of them
	// refused, restarted on every hello (zero = DefaultJoinGrace).
	MinWorld  int
	JoinGrace time.Duration
	// OnMetrics receives step samples with the rank that recorded them: the
	// session's own, one at a time from RecordStep, and on the coordinator
	// each worker's heartbeat-piggybacked batch (see ctrlMsg.Steps) from that
	// worker's serve goroutine. Implementations must be concurrency-safe and
	// quick (ClusterTimeline.Ingest qualifies), and must not keep steps: the
	// session reuses the slice once the call returns.
	OnMetrics func(rank int, steps []obs.StepSample)
}

func (o *SessionOptions) fill() {
	if o.RendezvousTimeout == 0 {
		o.RendezvousTimeout = 60 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = HeartbeatInterval
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = o.HeartbeatInterval * time.Duration(o.HeartbeatMisses)
	}
	if o.JoinGrace == 0 {
		o.JoinGrace = DefaultJoinGrace
	}
}

// Session is one process's membership in a bootstrapped world: its rank, the
// data-plane transport, and the control-plane machinery (heartbeats,
// barrier, shutdown).
type Session struct {
	Rank      int
	World     int
	Transport *Transport
	// Job is the coordinator-provided job payload (on the coordinator, the
	// payload it distributed — flexible rendezvous sizes it to the world that
	// actually formed).
	Job json.RawMessage

	opts SessionOptions

	// Coordinator side.
	ctrlLn  net.Listener
	workers []*ctrlConn // indexed by rank-1

	// Worker side.
	coord *ctrlConn

	// smu guards the step samples RecordStep takes: one, the sink's
	// one-element slice, and on a worker steps, the samples its next ping
	// carries.
	smu   sync.Mutex
	one   [1]obs.StepSample
	steps []obs.StepSample

	// closing marks a locally initiated teardown, so the serve loops can
	// tell "we closed our own sockets" from "the peer's process died".
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// ctrlConn is one control connection with line-JSON framing and a demux
// between heartbeat traffic and protocol replies.
type ctrlConn struct {
	c    net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	rank int // peer's rank

	// departed is set when the peer says goodbye: a graceful departure must
	// not be misdiagnosed as death once its heartbeats stop.
	departed atomic.Bool

	// replies receives non-ping protocol messages (barrier_ok, bye, ...).
	replies chan ctrlMsg
	// served is closed when the conn's serve loop — its only reader once the
	// rendezvous is over — has exited. Nil until a serve loop is started.
	served chan struct{}
	// lastHeard is guarded by hmu; the heartbeat monitor reads it.
	hmu       sync.Mutex
	lastHeard time.Time
}

func newCtrlConn(c net.Conn) *ctrlConn {
	return &ctrlConn{c: c, r: bufio.NewReader(c), replies: make(chan ctrlMsg, 8), lastHeard: time.Now()}
}

// peer names the other end in errors: a worker's conn on the coordinator, or
// the coordinator's (rank 0) on a worker.
func (cc *ctrlConn) peer() string {
	if cc.rank == 0 {
		return "the coordinator"
	}
	return fmt.Sprintf("rank %d", cc.rank)
}

func (cc *ctrlConn) send(m ctrlMsg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	_, err = cc.c.Write(append(data, '\n'))
	return err
}

// closeWrite half-closes the conn: the peer reads everything sent so far,
// then EOF, while this side can still receive.
func (cc *ctrlConn) closeWrite() {
	if tc, ok := cc.c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

func (cc *ctrlConn) read() (ctrlMsg, error) {
	line, err := cc.r.ReadBytes('\n')
	if err != nil {
		return ctrlMsg{}, err
	}
	var m ctrlMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return ctrlMsg{}, fmt.Errorf("dist: malformed control message %q: %w", line, err)
	}
	// Every successful read proves liveness — the serve loop's and the
	// rendezvous exchanges before it alike. Without this, a rendezvous slower
	// than HeartbeatTimeout (workers launched by hand, seconds apart) leaves
	// lastHeard at conn-creation time and the monitor spuriously fails the
	// world right after start.
	cc.touch()
	return m, nil
}

func (cc *ctrlConn) touch() {
	cc.hmu.Lock()
	cc.lastHeard = time.Now()
	cc.hmu.Unlock()
}

func (cc *ctrlConn) silentFor() time.Duration {
	cc.hmu.Lock()
	defer cc.hmu.Unlock()
	return time.Since(cc.lastHeard)
}

// Coordinate elects this process coordinator (rank 0) of a world-process
// group: it listens on ctrlAddr, admits world-1 workers, assigns ranks,
// distributes the address book and job payload, and runs the start barrier.
// The returned session's transport is connected and ready for traffic.
func Coordinate(ctrlAddr string, world int, job []byte, opts SessionOptions) (*Session, error) {
	opts.MinWorld = world // strict: the full world or nothing
	return CoordinateFlexible(ctrlAddr, world, opts, func(int) (int, []byte) { return world, job })
}

// CoordinateFlexible is the elastic rendezvous: it admits up to maxWorld-1
// workers, but once opts.MinWorld-1 have joined and no new joiner arrives
// within opts.JoinGrace, it forms the world from whoever is present. jobFor
// receives the final process count (joined workers + this coordinator) and
// returns the world size to seat (≤ procs; the remainder are released with a
// clean "not needed") plus the job payload for that world — the hook that
// lets a shrinking training job re-derive its data-parallel width. jobFor
// returning world < 1 aborts the rendezvous (no viable topology). A hello
// from a worker whose data plane differs or whose rank pin conflicts is
// answered with a fail and counted: once admitted and refused hellos fill
// the maxWorld-1 seats, the rendezvous waits only JoinGrace for another, and
// if it then aborts its error names every refusal and its reason.
func CoordinateFlexible(ctrlAddr string, maxWorld int, opts SessionOptions, jobFor func(procs int) (int, []byte)) (*Session, error) {
	opts.fill()
	if maxWorld < 1 {
		return nil, fmt.Errorf("dist: world size %d", maxWorld)
	}
	minJoin := opts.MinWorld - 1
	if opts.MinWorld <= 0 || minJoin > maxWorld-1 {
		minJoin = maxWorld - 1
	}
	// The control address is bound before the data plane asks the kernel for
	// an ephemeral port: the other way round, a caller that picked ctrlAddr
	// by probing ":0" could see that very port handed to the data plane and
	// lose the control listen to "address already in use".
	ln, err := net.Listen("tcp", ctrlAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen %s: %w", ctrlAddr, err)
	}
	tr, err := NewTransport(0, opts.Transport)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Session{Rank: 0, Transport: tr, opts: opts, ctrlLn: ln}
	deadline := time.Now().Add(opts.RendezvousTimeout)

	pinned := map[int]bool{0: true}
	var pending []*ctrlConn
	addrs := map[*ctrlConn]string{}
	// failPending tears down an aborted rendezvous: every already-admitted
	// worker gets a fail message and a closed conn, so it errors out promptly
	// instead of sitting blocked on welcome/start until its own timeout.
	// (s.close only covers s.workers, which is not set until bootstrap
	// succeeds.)
	failPending := func(reason string) {
		for _, cc := range pending {
			cc.send(ctrlMsg{Type: "fail", Err: reason})
			cc.c.Close()
		}
		s.close(nil)
	}
	// refused names every hello the coordinator answered with a fail, and
	// why, for the error if the rendezvous aborts.
	var refused []string
	refuse := func(cc *ctrlConn, m ctrlMsg, reason string) {
		cc.send(ctrlMsg{Type: "fail", Err: reason})
		cc.c.Close()
		refused = append(refused, fmt.Sprintf("%s: %s", m.Addr, reason))
	}
	lastHello := time.Now()
	for len(pending) < maxWorld-1 {
		// Past the minimum, each accept only waits out the join-grace window
		// (measured from the last hello): an elastic reform proceeds with the
		// survivors instead of blocking the full rendezvous timeout on a
		// worker that is never coming back. So does a rendezvous that has
		// heard as many hellos as it has seats, some of them refused: the
		// refused workers exit, and a full timeout would wait for nobody.
		accDeadline := deadline
		if len(pending) >= minJoin || len(pending)+len(refused) >= maxWorld-1 {
			if g := lastHello.Add(opts.JoinGrace); g.Before(accDeadline) {
				accDeadline = g
			}
		}
		if tcpLn, ok := ln.(*net.TCPListener); ok {
			tcpLn.SetDeadline(accDeadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			if len(pending) >= minJoin {
				break // grace expired with a viable pool: form the world
			}
			failPending(fmt.Sprintf("rendezvous aborted: %d of %d workers joined before timeout", len(pending), maxWorld-1))
			if len(refused) > 0 {
				return nil, fmt.Errorf("dist: rendezvous accept: %w (joined %d of %d workers; refused %d: %s)",
					err, len(pending), maxWorld-1, len(refused), strings.Join(refused, "; "))
			}
			return nil, fmt.Errorf("dist: rendezvous accept: %w (joined %d of %d workers)", err, len(pending), maxWorld-1)
		}
		cc := newCtrlConn(conn)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		m, err := cc.read()
		if err != nil || m.Type != "hello" || m.Addr == "" {
			conn.Close()
			continue // not a worker hello; ignore strays
		}
		conn.SetReadDeadline(time.Time{})
		lastHello = time.Now()
		if err := tr.sameNetwork("worker", m.Net); err != nil {
			refuse(cc, m, err.Error())
			continue
		}
		if m.WantRank > 0 && (m.WantRank >= maxWorld || pinned[m.WantRank]) {
			// An explicitly requested rank that conflicts with another pin or
			// lies outside the world is an operator error (two processes
			// pinned to the same rank) — reject loudly rather than silently
			// reassigning and running a topology the operator did not ask
			// for.
			refuse(cc, m, fmt.Sprintf("requested rank %d unavailable (world %d)", m.WantRank, maxWorld))
			continue
		}
		// Pinned ranks claim their slot now; auto workers (WantRank <= 0) are
		// assigned only after every hello has arrived, so an early auto
		// arrival can never steal a later worker's pinned rank.
		cc.rank = -1
		if m.WantRank > 0 {
			cc.rank = m.WantRank
			pinned[m.WantRank] = true
		}
		addrs[cc] = m.Addr
		pending = append(pending, cc)
	}

	world, job := jobFor(len(pending) + 1)
	if world < 1 || world > len(pending)+1 {
		failPending(fmt.Sprintf("rendezvous aborted: no viable world for %d processes", len(pending)+1))
		return nil, fmt.Errorf("dist: no viable world for %d processes (job reported %d)", len(pending)+1, world)
	}
	// Seat world-1 workers: pinned ranks that fit the formed world first
	// (their slots are reserved), then unpinned joiners in arrival order.
	// Everyone else is released — a clean "not needed", not a failure — and
	// told so before the welcomes go out.
	var seated, released []*ctrlConn
	for _, cc := range pending {
		if cc.rank > 0 && cc.rank < world {
			seated = append(seated, cc)
		}
	}
	for _, cc := range pending {
		if cc.rank < 0 && len(seated) < world-1 {
			seated = append(seated, cc)
		} else if cc.rank < 0 || cc.rank >= world {
			released = append(released, cc)
		}
	}
	if len(seated) != world-1 {
		failPending(fmt.Sprintf("rendezvous aborted: %d seatable workers for world %d", len(seated), world))
		return nil, fmt.Errorf("dist: %d seatable workers for world %d (conflicting rank pins?)", len(seated), world)
	}
	for _, cc := range released {
		cc.send(ctrlMsg{Type: "release", Err: fmt.Sprintf("world formed at %d; not needed", world)})
		cc.c.Close()
	}
	pending = seated
	s.World = world
	s.Job = job

	book := map[int]string{0: tr.Addr()}
	next := 1
	for _, cc := range pending {
		if cc.rank < 0 {
			for pinned[next] {
				next++
			}
			cc.rank = next
			pinned[next] = true
		}
		book[cc.rank] = addrs[cc]
	}
	// Welcome every worker with the complete book and this coordinator's
	// heartbeat and wire settings, collect readiness, start.
	welcome := ctrlMsg{Type: "welcome", Net: tr.network(), World: world, Book: book, Job: job,
		HBInterval: opts.HeartbeatInterval, HBTimeout: opts.HeartbeatTimeout, CRC: opts.Transport.CRC}
	for _, cc := range pending {
		welcome.Rank = cc.rank
		if err := cc.send(welcome); err != nil {
			failPending(fmt.Sprintf("rendezvous aborted: welcome to rank %d failed", cc.rank))
			return nil, fmt.Errorf("dist: welcome rank %d: %w", cc.rank, err)
		}
	}
	for _, cc := range pending {
		cc.c.SetReadDeadline(time.Now().Add(opts.RendezvousTimeout))
		m, err := cc.read()
		if err != nil || m.Type != "ready" {
			failPending(fmt.Sprintf("rendezvous aborted: rank %d never reported ready", cc.rank))
			return nil, fmt.Errorf("dist: rank %d never reported ready: %v", cc.rank, err)
		}
		cc.c.SetReadDeadline(time.Time{})
	}
	for _, cc := range pending {
		if err := cc.send(ctrlMsg{Type: "start"}); err != nil {
			failPending(fmt.Sprintf("rendezvous aborted: start to rank %d failed", cc.rank))
			return nil, fmt.Errorf("dist: start rank %d: %w", cc.rank, err)
		}
	}
	s.workers = pending
	tr.Connect(book)
	s.startControl()
	return s, nil
}

// Join connects to a coordinator, completes the rendezvous, and returns the
// worker's session once the start barrier releases. Workers may start before
// the coordinator: the dial retries until RendezvousTimeout, so arrival
// order never matters.
func Join(ctrlAddr string, opts SessionOptions) (*Session, error) {
	opts.fill()
	deadline := time.Now().Add(opts.RendezvousTimeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", ctrlAddr, opts.RendezvousTimeout)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: join %s: %w", ctrlAddr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	cc := newCtrlConn(conn)
	// Listen before hello so the reported address is live.
	tr, err := NewTransport(-1, opts.Transport)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := cc.send(ctrlMsg{Type: "hello", Addr: tr.Addr(), Net: tr.network(), WantRank: opts.WantRank}); err != nil {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(opts.RendezvousTimeout))
	m, err := cc.read()
	if err != nil {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: awaiting welcome: %w", err)
	}
	if m.Type == "fail" {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: coordinator rejected join: %s", m.Err)
	}
	if m.Type == "release" {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("%w: %s", ErrReleased, m.Err)
	}
	if m.Type != "welcome" {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: expected welcome, got %q", m.Type)
	}
	if err := tr.sameNetwork("coordinator", m.Net); err != nil {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: refusing welcome: %w", err)
	}
	// The world runs on the coordinator's heartbeat and wire settings; a
	// welcome without them (an older coordinator) leaves the defaults.
	opts.HeartbeatInterval, opts.HeartbeatTimeout = m.HBInterval, m.HBTimeout
	opts.fill()
	tr.opts.CRC = m.CRC // nothing has been sent yet: links dial on first send
	tr.setRank(m.Rank)
	tr.Connect(m.Book)
	if err := cc.send(ctrlMsg{Type: "ready"}); err != nil {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: ready: %w", err)
	}
	start, err := cc.read()
	if err != nil || start.Type != "start" {
		conn.Close()
		tr.Close()
		return nil, fmt.Errorf("dist: awaiting start: %v (got %q)", err, start.Type)
	}
	conn.SetReadDeadline(time.Time{})
	s := &Session{Rank: m.Rank, World: m.World, Transport: tr, Job: m.Job, opts: opts, coord: cc}
	s.startControl()
	return s, nil
}

// network names the data plane's socket kind for the hello and the welcome.
func (t *Transport) network() string { return t.ln.Addr().Network() }

// sameNetwork refuses a peer whose data plane is not t's: its book address
// could not be dialed, and the world would fail at step 0 instead.
func (t *Transport) sameNetwork(peer, got string) error {
	if got == t.network() {
		return nil
	}
	return fmt.Errorf("data-plane network mismatch: the %s's is %q, this rank's is %q (a mixed-build world?)", peer, got, t.network())
}

// setRank rebinds a transport created before its rank was known (Join
// listens before the coordinator assigns ranks).
func (t *Transport) setRank(rank int) {
	t.rank.Store(int32(rank))
}

// conns lists the session's control conns: every worker's on the
// coordinator, the coordinator's on a worker.
func (s *Session) conns() []*ctrlConn {
	if s.coord != nil {
		return []*ctrlConn{s.coord}
	}
	return s.workers
}

// startControl hands every control conn to its serve loop — from here on the
// conn's only reader — and starts the heartbeat monitor.
func (s *Session) startControl() {
	for _, cc := range s.conns() {
		cc.served = make(chan struct{})
		go s.serve(cc)
	}
	go s.monitor()
}

// serve pumps one control conn, at either end: heartbeats refresh liveness
// and a worker's pings carry its step samples to OnMetrics, a fail message
// poisons the data plane, and everything else lands in the reply channel. A
// broken conn (the peer process died) fails the session immediately.
func (s *Session) serve(cc *ctrlConn) {
	defer close(cc.served)
	cc.touch() // heartbeat accounting starts now, not at conn creation
	stopPing := s.startPinger(cc)
	defer stopPing()
	for {
		m, err := cc.read()
		if err != nil {
			if cc.departed.Load() {
				cc.closeWrite() // answer the departed peer's FIN so its close stops waiting
			} else if !s.closing.Load() && !s.Transport.isClosed() {
				s.fail(fmt.Errorf("dist: %s control connection broke: %v", cc.peer(), err))
			}
			return
		}
		switch m.Type {
		case "ping":
			if s.opts.OnMetrics != nil && len(m.Steps) > 0 {
				s.opts.OnMetrics(cc.rank, m.Steps)
			}
			cc.send(ctrlMsg{Type: "pong"})
		case "pong":
		case "fail":
			// Coordinator-relayed death of another rank: poison locally so
			// receives waiting on the dead rank error out promptly even
			// without a direct data-plane stream from it.
			s.Transport.Poison(fmt.Errorf("dist: %s reported failure: %s", cc.peer(), m.Err))
		case "bye":
			// Keep reading to the end of the stream: the peer half-closes
			// after its bye and waits for our side to drain (Session.close).
			cc.departed.Store(true)
		default:
			select {
			case cc.replies <- m:
			default: // protocol violation; drop rather than wedge heartbeats
			}
		}
	}
}

// fail poisons the local data plane and, on the coordinator, fans the
// failure out to every worker's control conn — a rank that has no data-plane
// stream from the dead process would otherwise block until its receive
// timeout instead of learning promptly.
func (s *Session) fail(cause error) {
	s.Transport.Poison(cause)
	for _, cc := range s.workers {
		cc.send(ctrlMsg{Type: "fail", Err: cause.Error()})
	}
}

// monitor fails the session when a peer that has not said goodbye goes
// silent for longer than the heartbeat timeout (a wedged-but-connected
// process).
func (s *Session) monitor() {
	tick := time.NewTicker(s.opts.HeartbeatInterval)
	defer tick.Stop()
	for range tick.C {
		if s.Transport.isClosed() || s.Transport.Err() != nil {
			return
		}
		for _, cc := range s.conns() {
			if !cc.departed.Load() && cc.silentFor() > s.opts.HeartbeatTimeout {
				s.fail(fmt.Errorf("dist: %s missed heartbeats for %v", cc.peer(), s.opts.HeartbeatTimeout))
				return
			}
		}
	}
}

// startPinger sends liveness pings on cc until the returned stop function
// runs (when the serve loop exits, on conn error or shutdown). A worker's
// pings carry the step samples RecordStep took since the last one.
func (s *Session) startPinger(cc *ctrlConn) func() {
	done := make(chan struct{})
	go func() {
		var batch []obs.StepSample
		tick := time.NewTicker(s.opts.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				m := ctrlMsg{Type: "ping"}
				if cc == s.coord {
					// The last ping's batch, already written, is the next
					// one's buffer: the two swap and keep their capacity.
					s.smu.Lock()
					batch, s.steps = s.steps, batch[:0]
					s.smu.Unlock()
					m.Steps = batch[max(len(batch)-maxPendingSteps, 0):]
				}
				if cc.send(m) != nil {
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// maxPendingSteps is how many step samples a ping carries at most: the
// newest ones, a backlog of ~1k steps, far beyond any heartbeat gap.
const maxPendingSteps = 1 << 10

// RecordStep takes one step sample of this process: OnMetrics, when set,
// receives it at once, and on a worker the next heartbeat ping carries it to
// the coordinator along with the rest of the newest maxPendingSteps recorded
// since the last ping. A session ships only what was recorded on it.
// Allocation-free once its buffers have grown.
func (s *Session) RecordStep(st obs.StepSample) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.opts.OnMetrics != nil {
		s.one[0] = st
		s.opts.OnMetrics(s.Rank, s.one[:])
	}
	if s.coord == nil {
		return
	}
	if len(s.steps) == 2*maxPendingSteps {
		// Keep the newest half in place rather than grow: the ping sends
		// at most that many anyway.
		s.steps = s.steps[:copy(s.steps, s.steps[maxPendingSteps:])]
	}
	s.steps = append(s.steps, st)
}

// Barrier blocks until every rank of the session reaches it at the same step:
// each rank names the step it is at, workers send it in a barrier message and
// wait for the coordinator's release, and the coordinator reads every
// worker's step before it releases them. If any step differs from the
// coordinator's, it fails the world with one message naming rank 0's step and
// each differing rank's, and every rank's Barrier returns that message. A
// dead rank fails the barrier everywhere instead of hanging it, and a rank
// that leaves the session gracefully fails it at once.
func (s *Session) Barrier(step int) error {
	if s.Rank != 0 {
		if err := s.coord.send(ctrlMsg{Type: "barrier", Step: step}); err != nil {
			// A write fails once the coordinator has closed its end, and the
			// serve loop reads that close too: await names the departure or
			// the poison, and returns at once when serve has exited.
			if _, aerr := s.await(s.coord, "barrier", "barrier_ok"); aerr != nil {
				return aerr
			}
			return fmt.Errorf("dist: barrier: %w", err)
		}
		_, err := s.await(s.coord, "barrier", "barrier_ok")
		return err
	}
	var differ []string
	for _, cc := range s.workers {
		m, err := s.await(cc, "barrier", "barrier")
		if err != nil {
			return err
		}
		if m.Step != step {
			differ = append(differ, fmt.Sprintf("rank %d at step %d", cc.rank, m.Step))
		}
	}
	if len(differ) > 0 {
		err := fmt.Errorf("dist: barrier: ranks disagree on the step: rank 0 at step %d, %s", step, strings.Join(differ, ", "))
		s.fail(err)
		return err
	}
	for _, cc := range s.workers {
		if err := cc.send(ctrlMsg{Type: "barrier_ok"}); err != nil {
			return fmt.Errorf("dist: barrier release rank %d: %w", cc.rank, err)
		}
	}
	return nil
}

// await returns the next protocol message from cc's peer, which must be of
// kind want; op names the exchange in errors. It fails with the poison error
// once the data plane is poisoned, at once when the peer has left the
// session, and after 4× the heartbeat timeout of silence otherwise.
func (s *Session) await(cc *ctrlConn, op, want string) (ctrlMsg, error) {
	peer := cc.peer()
	timeout := s.opts.HeartbeatTimeout * 4
	var m ctrlMsg
	select {
	case m = <-cc.replies:
	case <-cc.served:
		// The serve loop queues what it read before it exits, so a message
		// the peer sent before it left still wins; a crash poisons first.
		select {
		case m = <-cc.replies:
		default:
			if err := s.Transport.Err(); err != nil {
				return m, err
			}
			return m, fmt.Errorf("dist: %s: %s left the session", op, peer)
		}
	case <-s.Transport.inbox.Dead():
		return m, s.Transport.Err()
	case <-time.After(timeout):
		return m, fmt.Errorf("dist: %s: %s silent for %v", op, peer, timeout)
	}
	if m.Type != want {
		return m, fmt.Errorf("dist: %s: %s sent %q", op, peer, m.Type)
	}
	return m, nil
}

// SendProfile ships this worker's profile snapshot to the coordinator as a
// control frame. A job sends it after its last checkpoint fence, so it is the
// worker's only message on the coordinator's reply channel from then on.
// Coordinator-side callers should use their snapshot directly instead.
func (s *Session) SendProfile(data []byte) error {
	if s.Rank == 0 {
		return fmt.Errorf("dist: SendProfile on the coordinator (rank 0 collects, it does not send)")
	}
	if err := s.coord.send(ctrlMsg{Type: "prof", Prof: data}); err != nil {
		return fmt.Errorf("dist: send profile: %w", err)
	}
	return nil
}

// GatherProfiles collects one profile snapshot from every worker (coordinator
// only), in no particular order — snapshots identify their rank themselves.
// A worker that has sent its snapshot may already have left the session.
func (s *Session) GatherProfiles() ([][]byte, error) {
	if s.Rank != 0 {
		return nil, fmt.Errorf("dist: GatherProfiles on a worker (rank %d)", s.Rank)
	}
	out := make([][]byte, 0, len(s.workers))
	for _, cc := range s.workers {
		m, err := s.await(cc, "gather profiles", "prof")
		if err != nil {
			return nil, err
		}
		out = append(out, m.Prof)
	}
	return out, nil
}

// Close tears the session down gracefully: a bye on every control conn, then
// transport shutdown. Safe to call more than once.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.closeErr = s.close(nil)
	})
	return s.closeErr
}

// Abort tears the session down the way a process crash would: control conns
// and the data plane slam shut with no goodbye, so every surviving rank
// detects the death (stream break or heartbeat loss) and poisons itself.
// Failure-injection counterpart of Close.
func (s *Session) Abort() {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		for _, cc := range s.conns() {
			cc.c.Close()
		}
		if s.ctrlLn != nil {
			s.ctrlLn.Close()
		}
		s.Transport.Abort()
		s.closeErr = nil
	})
}

// closeDrainTimeout bounds how long a graceful close waits for the peers to
// finish reading and close their side; a wedged peer costs this much, once.
const closeDrainTimeout = time.Second

// close says goodbye on every control conn without resetting any of them.
// Closing a TCP socket that still holds unread bytes — a heartbeat ping that
// arrived after the serve loop's last read is enough — makes the kernel send
// a reset instead of a FIN and throw away whatever this side had written but
// the peer had not yet received: the tail of a profile, the bye itself. So
// each conn is half-closed after its bye, its serve loop keeps consuming what
// the peer sends until the peer's FIN arrives (a serve loop answers a
// departed peer's FIN with its own, so this is one round trip) or the drain
// deadline passes, and only then is the socket released.
func (s *Session) close(cause error) error {
	conns := s.conns()
	deadline := time.Now().Add(closeDrainTimeout)
	for _, cc := range conns {
		cc.send(ctrlMsg{Type: "bye"})
		cc.closeWrite()
		cc.c.SetDeadline(deadline) // ends the serve loop's read if the peer never answers
	}
	for _, cc := range conns {
		if cc.served != nil {
			<-cc.served
		}
		cc.c.Close()
	}
	if s.ctrlLn != nil {
		s.ctrlLn.Close()
	}
	err := s.Transport.Close()
	if cause != nil && err == nil {
		err = cause
	}
	return err
}

// ReleaseStragglers re-opens the control address after a job has finished
// and answers any worker still dialing the rendezvous with a clean release.
// An elastic world that reformed without a slow-to-rejoin survivor leaves
// that survivor retrying joins against an address nobody will ever listen on
// again once the job completes — it would burn MaxJoinFailures full
// RendezvousTimeout join attempts before concluding the coordinator is gone,
// and exit with an error for a world that finished fine without it. The
// coordinator instead lingers here for the drain window, releasing each
// straggler the moment its next dial lands (they retry on sub-second
// cadence, so the window only has to cover one retry gap). Best-effort by
// design: a listen failure or a straggler that never dials inside the window
// degrades to the old give-up path. Returns the number of workers released.
func ReleaseStragglers(ctrlAddr string, window time.Duration) int {
	ln, err := net.Listen("tcp", ctrlAddr)
	if err != nil {
		return 0
	}
	defer ln.Close()
	deadline := time.Now().Add(window)
	released := 0
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return released
		}
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return released // window elapsed (or the listener died)
		}
		cc := newCtrlConn(conn)
		conn.SetReadDeadline(deadline)
		if m, rerr := cc.read(); rerr == nil && m.Type == "hello" {
			cc.send(ctrlMsg{Type: "release", Err: "job already complete"})
			released++
		}
		conn.Close()
	}
}
