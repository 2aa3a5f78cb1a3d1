package dist

import (
	"bufio"
	"fmt"
	"math"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Wire-layer profiling: frame/byte counters on both directions, encode and
// decode spans (serialization cost, distinct from socket wait), CRC failures,
// and the sender-worker queue depth sampled at each enqueue.
var (
	scWireEncode = obs.Scope("wire/encode")
	scWireDecode = obs.Scope("wire/decode")
	scSendQueue  = obs.Scope("wire/send_queue")
	cFramesSent  = obs.Counter("wire/frames_sent")
	cBytesSent   = obs.Counter("wire/bytes_sent")
	cFramesRecvd = obs.Counter("wire/frames_recvd")
	cBytesRecvd  = obs.Counter("wire/bytes_recvd")
	cCRCFail     = obs.Counter("wire/crc_fail")
	// cCompressedBytes counts bytes of data frames that left this endpoint
	// lossy-encoded (f32/int8q) — the numerator of the wire-compression win.
	cCompressedBytes = obs.Counter("wire/compressed_bytes")
)

// closeWriteGrace bounds how long a graceful Close waits for queued frames
// to drain to each peer. A wedged-but-alive peer (stopped reading, socket
// buffers full) would otherwise block the sender worker inside a socket
// write forever — poisoning cannot interrupt a blocked syscall — and hang
// Close behind the worker drain.
const closeWriteGrace = 10 * time.Second

// linkSendBuffer is the SO_SNDBUF of every dialed link. A Unix-domain
// socket does not autotune its send buffer as TCP does, and at Linux's
// default (208 KiB) a larger frame, such as a 256 KiB pipeline activation,
// stalls partway through its write until the peer's reader drains it. 4 MiB
// is where TCP's autotuning tops out (the maximum of tcp_wmem); the kernel
// caps it at net.core.wmem_max.
const linkSendBuffer = 4 << 20

// Options configures a Transport.
type Options struct {
	// RecvTimeout bounds every Recv; zero uses transport.DefaultRecvTimeout,
	// negative waits forever.
	RecvTimeout time.Duration
	// CRC appends a CRC32 trailer to every outgoing data frame; incoming
	// frames are verified whenever the sender set the flag regardless.
	CRC bool
	// DType selects the payload encoding for outgoing data frames (default
	// DTF64, lossless). A lossy DType here applies to every data frame —
	// control frames always ship DTF64 — which is what the bench tiers want;
	// jobs that must keep losses and checkpoints exact instead leave this
	// DTF64 and arm a gradient-only tag window via SetWireDType +
	// SetLossyTagWindow after rendezvous.
	DType DType
}

// Transport is one process's endpoint of the multi-process data plane: a
// transport.Transport whose peers live in other OS processes on the same
// host. Each endpoint owns a Unix-domain stream listener (listenUnix: on
// Linux an abstract name the kernel picks, so no file outlives a killed
// process); outgoing links dial lazily and are serviced by one
// persistent sender worker per destination (a Mailbox of encoded frames) —
// the one queue between an actor's OpSend and the socket, and the §4.2
// guarantee across processes: a send never blocks the caller and never
// head-of-line blocks traffic to other peers. Incoming frames decode into
// pooled tensors (receivers Recycle after use).
//
// Send serializes the payload before returning: nothing reads the caller's
// tensor afterwards, which is why an actor's store deletes a sent buffer the
// moment liveness says so (§4.3) with no transfer to wait for. SendLent skips
// that copy for a large f64 payload: the sender worker writes header and
// payload to the socket with one vectored write straight from the caller's
// storage, and Settle waits for it.
//
// A rank may run alone on one P (the benchmark's ranks do on two vCPUs).
// There a frame would leave only when its actor next parks, a whole segment
// late, so an endpoint made in a process at GOMAXPROCS 1 yields the P once
// after a send that queues a frame for a peer: the sender worker, and any
// reader that is already runnable, runs before the caller computes again. A
// self-send, and a send that finds its link failed or torn down, queues
// nothing and does not yield. The yield is no wait: the worker still does
// every socket write, so a send never waits for its peer. An endpoint made
// with two or more Ps does not yield, since a spare P can take the worker;
// nor does a LocalMesh endpoint, whose ranks share their process's P, so a
// yield would hand it to another rank's actor.
//
// A shaped endpoint (SetShape) models a degraded network in the same worker:
// it holds each encoded data frame until the frame's modeled arrival, then
// writes or drops it (shaping.go).
type Transport struct {
	// rank is atomic because Join listens (starting reader goroutines)
	// before the coordinator assigns the final rank.
	rank atomic.Int32
	opts Options

	ln     net.Listener
	mu     sync.Mutex
	book   map[int]string
	peers  map[int]*peerLink
	conns  []net.Conn
	closed bool
	// shape is what every link dialed from now on models (SetShape).
	shape ShapeOpts

	// inbox holds the tag mailboxes decoded frames land in, and the poison
	// state: the first transport-level failure (peer died, corrupt stream,
	// coordinator-reported death, stalled mailbox).
	inbox *transport.Inbox

	// Lossy-encoding plane: wireDType is the encoding for lossy-eligible data
	// frames; lossyLo/lossyHi bound the half-open tag window those frames
	// live in ([MinInt64, MaxInt64) when Options.DType was lossy, empty until
	// SetLossyTagWindow otherwise). Frames outside the window — and every
	// control frame — ship DTF64.
	wireDType atomic.Uint32
	lossyLo   atomic.Int64
	lossyHi   atomic.Int64

	sent      atomic.Int64
	sentBytes atomic.Int64

	// yield: a send that queues a frame gives up the P once (see above). Set
	// when the endpoint is made, cleared by NewLocalMesh before any send.
	yield bool
}

// peerLink is one outgoing connection: a lazily dialed conn plus the sender
// worker that owns all writes to it, through the link's buffered writer,
// which only the worker's closure holds. lentHdr and vec are the worker's
// vectored-write scratch, pacer its shaping model (nil on an unshaped link,
// fixed at dial) — touched only on the worker goroutine.
type peerLink struct {
	mb       *Mailbox[outFrame]
	pacer    *pacer
	c        net.Conn
	lentHdr  [lentHdrLen]byte
	vecStore [3][]byte
	vec      net.Buffers

	// Lent-send accounting. lent counts payloads queued by SendLent, released
	// the ones the worker no longer references (written, failed, or dropped at
	// teardown); each release leaves a token in settled. settleMu makes one
	// Settle at a time the token's consumer.
	lent, released atomic.Int64
	settled        chan struct{}
	settleMu       sync.Mutex
}

// outFrame is one item of a sender worker's queue: an encoded frame in a
// pooled buffer, which the worker writes as it is and recycles, or
// a lent frame — payload borrowed from SendLent's caller until the worker
// releases it, hdr what goes around it on the wire (lendFrame). enqueued is
// when Send queued a data frame on a shaped link, zero otherwise.
type outFrame struct {
	frame    []byte
	payload  []byte
	hdr      [lentHdrLen]byte
	enqueued time.Time
}

// release marks one lent payload as no longer referenced by the worker.
func (pl *peerLink) release() {
	pl.released.Add(1)
	select {
	case pl.settled <- struct{}{}:
	default: // a token is already waiting
	}
}

// zeroShape is the payload-free shape control frames carry (a rank-0 shape
// would denote a scalar, which has one element).
var zeroShape = []int{0}

// controlFrame is the single choke point for control-frame construction:
// hello, goodbye, and any future handshake frame are always DTF64 and never
// CRC'd (they carry no payload to protect, and the receiver validates the
// header fields it acts on). A dtype audit of the control plane starts and
// ends here.
func controlFrame(kind uint8, from, to int) []byte {
	return EncodeFrame(&Header{Kind: kind, From: from, To: to, DType: DTF64, Shape: zeroShape}, nil, false)
}

// lendMinFrame is the threshold below which SendLent copies instead of
// lending: a frame of at most this many bytes is encoded into a pooled buffer
// like any Send and joins its burst's one buffered write, where a lent frame
// would flush the buffer and take a write (and a Settle) of its own.
const lendMinFrame = 4096

// NewTransport opens the data-plane listener for one rank. Peers are
// unreachable until Connect installs the address book (rendezvous provides
// it).
func NewTransport(rank int, opts Options) (*Transport, error) {
	if opts.RecvTimeout == 0 {
		opts.RecvTimeout = transport.DefaultRecvTimeout
	}
	if opts.DType == 0 {
		opts.DType = DTF64
	}
	ln, err := listenUnix()
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d listen: %w", rank, err)
	}
	t := &Transport{
		opts:  opts,
		ln:    ln,
		peers: map[int]*peerLink{},
		inbox: transport.NewInbox(1),
		yield: goruntime.GOMAXPROCS(0) == 1,
	}
	t.rank.Store(int32(rank))
	t.wireDType.Store(uint32(opts.DType))
	if opts.DType != DTF64 {
		t.lossyLo.Store(math.MinInt64)
		t.lossyHi.Store(math.MaxInt64)
	}
	go t.acceptLoop()
	return t, nil
}

// SetWireDType switches the encoding for lossy-eligible data frames at
// runtime — workers learn the job's wire mode from the rendezvous payload,
// after the transport exists. Panics on an invalid dtype (a flag typo must
// not silently train lossless).
func (t *Transport) SetWireDType(dt DType) {
	if !dt.valid() {
		panic(fmt.Sprintf("dist: SetWireDType(%d): invalid dtype", dt))
	}
	t.wireDType.Store(uint32(dt))
}

// SetLossyTagWindow restricts lossy encoding to data frames whose tag falls
// in [lo, hi) — in practice the gradient communicator's collective tag
// window, so loss exchange, pipeline activations, and control traffic stay
// DTF64 while gradient buckets compress.
func (t *Transport) SetLossyTagWindow(lo, hi int) {
	t.lossyLo.Store(int64(lo))
	t.lossyHi.Store(int64(hi))
}

// SetShape makes every link dialed from now on a modeled network link (see
// ShapeOpts) — workers learn the job's shape from the rendezvous payload,
// after the transport exists. Links dial on first send, so call it before
// traffic: a link keeps the shape it was dialed with.
func (t *Transport) SetShape(opts ShapeOpts) {
	t.mu.Lock()
	t.shape = opts
	t.mu.Unlock()
}

// wireDTypeFor picks the encoding for one outgoing data frame.
func (t *Transport) wireDTypeFor(tag int) DType {
	dt := DType(t.wireDType.Load())
	if dt == DTF64 {
		return DTF64
	}
	if lo, hi := t.lossyLo.Load(), t.lossyHi.Load(); int64(tag) >= lo && int64(tag) < hi {
		return dt
	}
	return DTF64
}

// Rank returns this endpoint's transport actor ID.
func (t *Transport) Rank() int { return int(t.rank.Load()) }

// Addr returns the data-plane listen address (for the rendezvous address
// book).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Connect installs the rank → address book. Links dial lazily on first send.
func (t *Transport) Connect(book map[int]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.book = make(map[int]string, len(book))
	for r, a := range book {
		t.book[r] = a
	}
}

func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns = append(t.conns, conn)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one accepted connection into the inbox. The
// first frame must be a hello identifying the sending rank; any decode error
// after that poisons the transport (a broken stream means messages may have
// been lost, and tag matching can no longer be trusted).
func (t *Transport) readLoop(conn net.Conn) {
	dec := NewDecoder(bufio.NewReaderSize(conn, 1<<16))
	h, _, err := dec.ReadFrame()
	if err != nil || h.Kind != frameHello {
		conn.Close()
		return // never identified itself; nothing can have been lost
	}
	peer := h.From
	for {
		h, ten, err := dec.ReadFrame()
		if err != nil {
			if t.isClosed() {
				return
			}
			t.Poison(fmt.Errorf("dist: rank %d: stream from peer %d broke: %w", t.Rank(), peer, err))
			return
		}
		switch h.Kind {
		case frameGoodbye:
			return
		case frameData:
			if h.To != t.Rank() {
				t.Poison(fmt.Errorf("dist: rank %d received frame addressed to %d (corrupt routing)", t.Rank(), h.To))
				return
			}
			if !t.deliver(h.From, h.Tag, ten) {
				tensor.Recycle(ten) // poisoned while delivering; undelivered payload goes back to the pool
				return
			}
		}
	}
}

// deliver places a decoded tensor into its tag mailbox, blocking (bounded by
// RecvTimeout) while the previous message under the same tag is unconsumed. A
// delivery that cannot drain in time has lost a message, so it poisons the
// transport; the caller keeps (and recycles) the undelivered tensor.
func (t *Transport) deliver(from, tag int, ten *tensor.Tensor) bool {
	if err := t.inbox.Put(transport.Key{From: from, To: t.Rank(), Tag: tag}, ten, t.opts.RecvTimeout); err != nil {
		t.Poison(err)
		return false
	}
	return true
}

// link returns the sender worker for a destination, dialing on first use.
func (t *Transport) link(to int) (*peerLink, error) {
	t.mu.Lock()
	if pl, ok := t.peers[to]; ok {
		t.mu.Unlock()
		return pl, nil
	}
	addr, ok := t.book[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: rank %d has no address for peer %d (rendezvous incomplete?)", t.Rank(), to)
	}
	conn, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: addr, Net: "unix"})
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d dial peer %d at %s: %w", t.Rank(), to, addr, err)
	}
	if err := conn.SetWriteBuffer(linkSendBuffer); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d link to peer %d: send buffer: %w", t.Rank(), to, err)
	}
	t.mu.Lock()
	if existing, raced := t.peers[to]; raced {
		t.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	w := bufio.NewWriterSize(conn, 1<<16)
	pl := &peerLink{c: conn, settled: make(chan struct{}, 1)}
	if t.shape.enabled() {
		pl.pacer = newPacer(t.shape, t.Rank(), to)
	}
	// The sender worker owns all writes to this conn: frames arrive encoded,
	// one frame per message, and the worker writes each into the link's
	// buffered writer and recycles its buffer; the drain hook flushes once per
	// burst (after the last queued frame) — one syscall for a burst of small
	// frames, not one per frame. A lent frame bypasses the buffered writer:
	// whatever is buffered is flushed, then header, borrowed payload and
	// trailer go out in one vectored write. FIFO holds because the buffer
	// always drains before anything later is written. On a shaped link the
	// worker first waits out each data frame's modeled arrival — having put on
	// the wire what arrived before it — and then writes the frame as above, or
	// drops it.
	failed := func(what string, err error) {
		if err != nil && !t.isClosed() {
			t.Poison(fmt.Errorf("dist: rank %d %s peer %d: %w", t.Rank(), what, to, err))
		}
	}
	pl.mb = NewMailboxDrain(0, func(f outFrame) {
		if !f.enqueued.IsZero() {
			at, drop := pl.pacer.arrival(f.enqueued, len(f.frame))
			if d := time.Until(at); d > 0 {
				failed("flush to", w.Flush())
				time.Sleep(d)
			}
			if drop {
				recycleFrameBuf(f.frame)
				return
			}
		}
		if f.payload != nil {
			err := w.Flush()
			if err == nil {
				// The header moves out of the queue item into storage that
				// outlives this call; WriteTo consumes vec as it writes, so vec
				// is re-cut from its backing array every time.
				pl.lentHdr = f.hdr
				head, tail := lentHdrParts(&pl.lentHdr, t.opts.CRC)
				pl.vecStore = [3][]byte{head, f.payload, tail}
				pl.vec = pl.vecStore[:]
				_, err = pl.vec.WriteTo(conn)
				pl.vecStore = [3][]byte{} // drop the borrowed reference
			}
			failed("write to", err)
			pl.release()
			return
		}
		_, err := w.Write(f.frame)
		failed("write to", err)
		recycleFrameBuf(f.frame)
	}, func() {
		failed("flush to", w.Flush())
	})
	// Identify ourselves so the peer's readLoop can attribute the stream. The
	// hello must be queued before the link is published: a concurrent Send
	// that finds the link in t.peers could otherwise enqueue a data frame
	// ahead of the hello, and the peer drops un-attributed streams.
	pl.mb.Put(outFrame{frame: controlFrame(frameHello, t.Rank(), to)})
	t.peers[to] = pl
	t.conns = append(t.conns, conn)
	t.mu.Unlock()
	return pl, nil
}

// Send implements transport.Transport. from must be this endpoint's rank
// (every caller is an actor hosted by this process); a send to self
// short-circuits through the local inbox. The payload is fully serialized
// before Send returns.
func (t *Transport) Send(from, to, tag int, ten *tensor.Tensor) {
	t.send(from, to, tag, ten.Shape(), ten.Data(), nil, false)
}

// SendLent implements transport.Transport. A payload that ships f64 in a
// frame larger than lendMinFrame is queued as a pooled header plus the caller's
// own bytes, which the peer's sender worker writes with one vectored write
// and Settle waits for; everything else — a lossy dtype, a small frame, a
// self-send, a build without a memory image of []float64 — is copied exactly
// as Send copies it and needs no settling, and so is every payload bound for
// a shaped link, which holds its frames long after the caller has moved on.
// The frame on the wire is the same either way. A lossy frame — and a lossy
// self-send — encodes payload + residual and leaves in residual what it
// dropped; an f64 one ignores residual.
func (t *Transport) SendLent(from, to, tag int, payload, residual []float64) {
	shape := [1]int{len(payload)}
	t.send(from, to, tag, shape[:], payload, residual, true)
}

func (t *Transport) send(from, to, tag int, shape []int, data, residual []float64, lend bool) {
	self := t.Rank()
	if from != self {
		panic(fmt.Sprintf("dist: rank %d asked to send as rank %d (one actor per process)", self, from))
	}
	dt := t.wireDTypeFor(tag)
	t.sent.Add(1)
	t.sentBytes.Add(int64(dt.payloadBytes(len(data))))
	if to == self {
		// Loopback: match in-process semantics — the receiver owns a pooled
		// copy, the caller keeps the original. A lossy dtype applies here too,
		// so a self-send observes the same values remote ranks decode.
		cp := tensor.GetScratchShaped(shape...)
		cp.CopyFrom(data)
		LossyRoundTrip(dt, cp.Data(), residual)
		if !t.deliver(from, tag, cp) {
			tensor.Recycle(cp)
		}
		return
	}
	pl, err := t.link(to)
	if err != nil {
		t.Poison(err)
		return
	}
	h := Header{Kind: frameData, From: from, To: to, Tag: tag, DType: dt, Shape: shape}
	he := obs.TrackTid(scWireEncode, self)
	var f outFrame
	n := frameSize(&h, len(data), t.opts.CRC)
	if img := f64Image(data); lend && pl.pacer == nil && dt == DTF64 && img != nil && n > lendMinFrame {
		f.payload = img
		lendFrame(&f.hdr, &h, img, t.opts.CRC)
		pl.lent.Add(1)
	} else {
		f.frame = encodeFrame(&h, data, residual, t.opts.CRC)
	}
	if pl.pacer != nil {
		f.enqueued = time.Now()
	}
	he.StopBytes(int64(n))
	obs.Add(cFramesSent, 1)
	obs.Add(cBytesSent, int64(n))
	if dt != DTF64 {
		obs.Add(cCompressedBytes, int64(n))
	}
	if !pl.mb.TryPut(f) {
		// Teardown raced this send: the endpoint is shutting down and the
		// frame can never reach the wire. Drop it — the peer's broken stream
		// (or the poison that triggered the close) carries the failure.
		if f.payload != nil {
			pl.release()
		} else {
			recycleFrameBuf(f.frame)
		}
		return
	}
	if obs.Enabled() {
		obs.Observe(scSendQueue, int64(pl.mb.Len()))
	}
	if t.yield {
		goruntime.Gosched()
	}
}

// Settle implements transport.Transport: it returns once the peer's sender
// worker has let go of every payload lent to it so far — written it, failed
// to, or dropped it at teardown. A healthy wait is the socket write itself. A
// poisoned transport, or a peer that takes nothing for RecvTimeout (which
// poisons, as a stalled mailbox does), fails the worker's blocked write with
// a deadline in the past, so the wait that remains is the worker's return
// from it.
func (t *Transport) Settle(from, to int) error {
	if self := t.Rank(); from != self {
		panic(fmt.Sprintf("dist: rank %d asked to settle as rank %d (one actor per process)", self, from))
	}
	t.mu.Lock()
	pl := t.peers[to]
	t.mu.Unlock()
	if pl != nil && pl.released.Load() < pl.lent.Load() {
		pl.settleMu.Lock()
		target := pl.lent.Load()
		for pl.released.Load() < target {
			err := t.inbox.Await(pl.settled, t.opts.RecvTimeout)
			if err == nil {
				continue
			}
			if err == transport.ErrAwaitTimeout {
				t.Poison(fmt.Errorf("dist: rank %d: peer %d took nothing of a lent send for %v (peer stalled or wedged)", t.Rank(), to, t.opts.RecvTimeout))
			}
			pl.c.SetWriteDeadline(time.Unix(1, 0))
			for pl.released.Load() < target {
				<-pl.settled
			}
		}
		pl.settleMu.Unlock()
	}
	if err := t.Err(); err != nil {
		return err
	}
	if t.isClosed() {
		return fmt.Errorf("dist: rank %d: transport closed", t.Rank())
	}
	return nil
}

// Recv implements transport.Transport. to must be this endpoint's rank. The
// returned tensor is pool-owned: Recycle it (or hand ownership onward) after
// consuming.
func (t *Transport) Recv(to, from, tag int) (*tensor.Tensor, error) {
	if to != t.Rank() {
		panic(fmt.Sprintf("dist: rank %d asked to receive as rank %d (one actor per process)", t.Rank(), to))
	}
	return t.inbox.Get(transport.Key{From: from, To: to, Tag: tag}, t.opts.RecvTimeout)
}

// Poison implements transport.Transport, logging the first cause to the
// flight recorder.
func (t *Transport) Poison(err error) {
	if t.inbox.Poison(err) {
		flight.Log("poison", t.Rank(), -1, err.Error())
	}
}

// QueueDepth reports the deepest sender-worker mailbox across peers — the
// per-step queue-depth gauge the telemetry plane samples (a persistently
// growing depth marks this rank's downstream as a straggler suspect).
func (t *Transport) QueueDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	depth := 0
	for _, pl := range t.peers {
		if pl == nil || pl.mb == nil {
			continue
		}
		if n := pl.mb.Len(); n > depth {
			depth = n
		}
	}
	return depth
}

// Err implements transport.Transport.
func (t *Transport) Err() error { return t.inbox.Err() }

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// SendCount reports messages sent and total payload bytes moved.
func (t *Transport) SendCount() (int, int64) {
	return int(t.sent.Load()), t.sentBytes.Load()
}

// Close stops the listener, drains sender workers (goodbye frames flush
// behind any queued data), and closes every connection. Peers treat a
// goodbye as a clean stream end, so a graceful Close does not poison them.
// Safe to call more than once.
func (t *Transport) Close() error {
	t.shutdown(true)
	return nil
}

// Abort tears the endpoint down the way a crash would: listener and
// connections slam shut with no goodbye, so every peer's reader sees the
// stream break and poisons its transport. Failure-injection counterpart of
// Close (a SIGKILLed process aborts, it never closes).
func (t *Transport) Abort() {
	t.shutdown(false)
}

func (t *Transport) shutdown(graceful bool) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := make([]*peerLink, 0, len(t.peers))
	for _, pl := range t.peers {
		peers = append(peers, pl)
	}
	conns := t.conns
	ln := t.ln
	t.mu.Unlock()

	if graceful {
		// Bound the drain: past the deadline, writes to a wedged peer fail
		// instead of blocking Stop (and therefore Close) forever.
		deadline := time.Now().Add(closeWriteGrace)
		for _, pl := range peers {
			pl.c.SetWriteDeadline(deadline)
			pl.mb.Put(outFrame{frame: controlFrame(frameGoodbye, t.Rank(), -1)})
		}
		for _, pl := range peers {
			pl.mb.Stop()
		}
	}
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
	if !graceful {
		// The conns are already slammed shut, so queued writes fail fast;
		// Stop still drains each worker (recycling queued frame buffers) and
		// retires its goroutine — an aborted endpoint must not leak workers
		// to a process that rebuilds a session and carries on.
		for _, pl := range peers {
			pl.mb.Stop()
		}
	}
}
