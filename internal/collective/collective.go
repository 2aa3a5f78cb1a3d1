// Package collective is the executable collective-communication engine: the
// role NCCL collectives play for JaxPP's data-parallel dimension, layered on
// the runtime's tag-matched point-to-point transport. It provides process
// groups over any list of actor IDs and in-place ring collectives over
// rank-private buffers: the bucketed all-reduce (AllReduceBucketsInPlace —
// a one-tensor list all-reduces that tensor in its own storage — and its two
// halves, ReduceBucketsInPlace and GatherBucketsInPlace), ReduceScatterVInto,
// AllGatherVInto, AllGatherInto, and Barrier. The one reduction is a sum
// (OpSum), folded with tensor's add kernel (tensor.AddSlice), the incoming
// chunk the second operand of every add.
//
// One ring engine (ring.go). Every reducing or gathering collective is a
// composition of two passes over a buffer cut into Size() segments by an
// offsets table, each Size()-1 steps of "send one segment to the next rank,
// receive one from the previous":
//
//   - reducePass(first): step s sends segment first-s and folds the incoming
//     segment first-s-1 into the buffer; the rank ends up holding the fully
//     reduced segment first+1.
//   - gatherPass(first): step s sends segment first-s and copies the incoming
//     segment first-s-1 over the buffer; every rank ends up holding every
//     segment.
//
// first fixes which rank starts each segment's accumulation, and with it the
// floating-point association of every element. Two layouts are in use and
// must stay distinct, since moving a start rank moves the bits of every sum
// over three or more ranks:
//
//   - all-reduce (each AllReduceBucketsInPlace bucket): reducePass(first =
//     rank) then gatherPass(first = rank+1). Balanced chunk i starts at rank
//     i and walks up the ring to rank i-1, which then circulates it.
//   - reduce-scatter (ReduceScatterVInto, per bucket): reducePass(first =
//     rank-1). Segment r starts at rank r+1 and ends on rank r, its owner.
//
// The bucketed all-reduce is also available as its two halves, and is nothing
// but their composition: ReduceBucketsInPlace runs every bucket's reduce pass
// and leaves rank r holding the fully reduced chunk r+1 of each bucket —
// OwnedRanges names those elements without running anything — and
// GatherBucketsInPlace runs every bucket's gather pass from exactly that
// state. A caller that puts elementwise work between the halves (distrun's
// step epilogue: reduce the gradients, update the owned ranges of the
// parameters, gather the parameters) therefore ends with the bits the full
// all-reduce followed by the same work on every element would have produced,
// for any group size and bucket cut, having sent the same bytes.
//
// The all-gathers are gatherPass(first = rank) alone; Barrier is not a ring
// but receives through the passes' recv helper, and sends its shared
// one-element token, which is not lent.
//
// Chunk discipline: a pass lends the transport the segment of the buffer it
// sends (Transport.SendLent) and receives pooled scratch tensors, which it
// folds or copies into the buffer and recycles at once. What is on loan is
// not written until the pass has settled (Transport.Settle), which every pass
// does before returning, on error paths too: a reduce hop folds only into a
// segment it has yet to send, a gather hop writes each segment once, before
// sending it on. Whether a lent segment reaches the wire
// from where it lies (dist) or as a pooled copy the receiver recycles (chan)
// is the transport's business; either way steady-state collectives perform
// zero heap allocations — the per-hop profile Calibrate measures.
//
// Tag discipline: pipeline P2P traffic uses the small sequential tags the
// taskgraph compiler allocates (0..NumTags). Collective tags live in a
// disjoint space starting at TagSpaceBase, carved into per-group windows;
// within a group every operation consumes a deterministic window of tags
// derived from a per-rank operation counter. Because every rank of a group
// must issue the same sequence of collective calls (the usual collective
// contract), the counters agree across ranks without coordination, so
// collectives and pipeline sends can share one transport without tag
// collisions or deadlock.
package collective

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// Op is a reduction operator. OpSum is the only one.
type Op int

// OpSum adds elementwise (gradient accumulation).
const OpSum Op = 0

func (o Op) String() string {
	if o == OpSum {
		return "sum"
	}
	return "?"
}

const (
	// TagSpaceBase is the first tag reserved for collectives. Pipeline P2P
	// tags are allocated sequentially from zero by the taskgraph compiler and
	// never reach this region.
	TagSpaceBase = 1 << 20

	// GroupTagWindow is the tag window owned by one group. Its size caps
	// group membership: every operation's tag window (2n+2 tags) must fit at
	// least twice, so 1<<12 admits groups of up to 1023 ranks — sized for
	// the multi-process dist transport's process groups.
	//
	// Tag reuse within the window is governed separately by opReuseWindows:
	// operation windows wrap quickly regardless of how wide the group window
	// is, so steady-state collectives rebind warm persistent mailboxes
	// instead of walking thousands of cold tags between reuses. Wrapping is
	// safe regardless of rank skew: a mailbox delivers its messages in FIFO
	// order and has capacity one, so a send that reuses a tag whose previous
	// message is still unconsumed simply backpressures until the receiver —
	// which consumes tags in the same per-pair order every rank issues them
	// (the collective contract) — drains it.
	GroupTagWindow = 1 << 12

	// opReuseWindows is how many distinct operation tag windows a
	// communicator cycles through before reuse. Two is the safety minimum
	// (back-to-back reuse of a single window could match a laggard's send
	// from operation k to a peer's receive in operation k+1 under extreme
	// skew); sixteen keeps a healthy margin while bounding the number of
	// persistent mailboxes a steady-state ring touches — the mailbox-reuse
	// warmup horizon tests and calibration must cover.
	opReuseWindows = 16
)

// Group is a process group: an ordered set of transport actor IDs that
// perform collectives together, plus a private tag window.
type Group struct {
	tr      transport.Transport
	ranks   []int // actor IDs; position in the slice is the rank
	tagBase int
}

// GroupTagRange returns the half-open wire-tag window [lo, hi) that a group
// with the given ID uses for all its collective traffic. The transport's
// lossy-dtype plane keys on it: marking a gradient communicator's window
// lossy compresses exactly that group's frames, while every other tag —
// pipeline P2P, loss exchange, other groups — stays lossless.
func GroupTagRange(groupID int) (lo, hi int) {
	lo = TagSpaceBase + groupID*GroupTagWindow
	return lo, lo + GroupTagWindow
}

// NewGroup builds a process group over the given actor IDs. groupID selects
// the group's tag window and must be unique among groups that could share a
// (sender, receiver) actor pair; groups over disjoint actor sets may reuse
// IDs. Rank order is the order of `ranks`.
func NewGroup(tr transport.Transport, ranks []int, groupID int) (*Group, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("collective: empty group")
	}
	if groupID < 0 {
		return nil, fmt.Errorf("collective: negative group ID %d", groupID)
	}
	// Every operation's tag window (2n+2) must fit the group window at least
	// twice, or opWindow's modulus degenerates to reusing one window
	// back-to-back.
	if maxRanks := (GroupTagWindow/2 - 2) / 2; len(ranks) > maxRanks {
		return nil, fmt.Errorf("collective: group of %d ranks exceeds the %d-rank tag-window limit", len(ranks), maxRanks)
	}
	seen := map[int]bool{}
	for _, r := range ranks {
		if seen[r] {
			return nil, fmt.Errorf("collective: duplicate actor %d in group", r)
		}
		seen[r] = true
	}
	return &Group{
		tr:      tr,
		ranks:   append([]int(nil), ranks...),
		tagBase: TagSpaceBase + groupID*GroupTagWindow,
	}, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return len(g.ranks) }

// Comm returns the communicator handle for the given rank (0-based position
// in the group). Each participating goroutine must use its own Communicator;
// the per-rank operation counter it carries is what makes tag allocation
// deterministic.
func (g *Group) Comm(rank int) (*Communicator, error) {
	if rank < 0 || rank >= len(g.ranks) {
		return nil, fmt.Errorf("collective: rank %d out of range for group of %d", rank, len(g.ranks))
	}
	return &Communicator{g: g, rank: rank}, nil
}

// Communicator is one rank's handle on a group. Not safe for concurrent use
// by multiple goroutines (like an NCCL communicator).
type Communicator struct {
	g    *Group
	rank int
	seq  int

	// flat is the reusable gradient-fusion scratch the bucketed halves
	// coalesce a fused bucket's tensors into; it grows to the largest bucket
	// seen and is then reused every step.
	flat []float64

	// Cached fusion plan: the gradient list's sizes are invariant across
	// steps, so bucket boundaries are computed once and reused until the
	// sizes or the bucket cap change.
	planSizes  []int
	planBounds [][2]int
	planBytes  int

	// off is the reusable segment-offsets table of the ring passes (ring.go).
	off []int

	// ef arms error feedback (ArmErrorFeedback); res[b] is then the residual
	// of fusion bucket b: what the wire dropped of the chunk the bucket's
	// reduce pass sends first, which the next step's send of it carries.
	ef  bool
	res [][]float64
}

// ArmErrorFeedback turns error feedback on for every later reduce half: the
// communicator keeps one residual per fusion bucket, zero at first, for
// exactly what the half ships as this rank's own values — the chunk each
// bucket's pass sends at hop 0, on the grid of the frame that carries it.
// Everything else leaves the rank only inside a partial sum, and a lossy wire
// rounds it afresh. Over an exact wire the residuals stay zero. A residual is
// rank-local: it never travels and is not checkpointed.
func (c *Communicator) ArmErrorFeedback() { c.ef = true }

// Residuals returns the residuals the reduce half has kept since
// ArmErrorFeedback, indexed by fusion bucket; a bucket that never sent has
// none (a nil entry, or none at all past the last one that did). The slices
// are the communicator's own and final once a reduce half returns; nil
// while error feedback is off.
func (c *Communicator) Residuals() [][]float64 { return c.res }

// residual is fusion bucket b's residual, n elements long, or nil while
// error feedback is off. It is made on the bucket's first armed pass and
// remade zero if the bucket's chunk changes size.
func (c *Communicator) residual(b, n int) []float64 {
	if !c.ef {
		return nil
	}
	for len(c.res) <= b {
		c.res = append(c.res, nil)
	}
	if c.res[b] == nil || len(c.res[b]) != n {
		c.res[b] = make([]float64, n)
	}
	return c.res[b]
}

// bucketPlan returns the fusion-bucket boundaries for ts, recomputing only
// when the tensor sizes or bucket cap differ from the cached plan (the
// steady-state path performs no allocations).
func (c *Communicator) bucketPlan(ts []*tensor.Tensor, bucketBytes int) [][2]int {
	same := c.planBounds != nil && c.planBytes == bucketBytes && len(c.planSizes) == len(ts)
	if same {
		for i, t := range ts {
			if c.planSizes[i] != t.Size() {
				same = false
				break
			}
		}
	}
	if same {
		return c.planBounds
	}
	c.planSizes = c.planSizes[:0]
	for _, t := range ts {
		c.planSizes = append(c.planSizes, t.Size())
	}
	c.planBounds = bucketBoundaries(c.planSizes, bucketBytes)
	c.planBytes = bucketBytes
	return c.planBounds
}

// flatScratch returns an n-element scratch slice private to this
// communicator, growing it on first use and reusing it afterwards.
func (c *Communicator) flatScratch(n int) []float64 {
	if cap(c.flat) < n {
		c.flat = make([]float64, n)
	}
	return c.flat[:n]
}

// Size returns the group size.
func (c *Communicator) Size() int { return c.g.Size() }

// opWindow reserves the next deterministic tag window for one collective
// operation and returns its base tag. The window must cover every distinct
// (ring step) tag the operation uses: 2(n-1) for all-reduce, ceil(log2 n)+1
// for barrier — opTagStride bounds them all. Windows cycle after
// min(opReuseWindows, GroupTagWindow/stride) operations, so warm mailbox
// reuse kicks in after a bounded warmup even under the wide group window
// large dist process groups need.
func (c *Communicator) opWindow() int {
	stride := c.opTagStride()
	opsPerWindow := GroupTagWindow / stride
	if opsPerWindow > opReuseWindows {
		opsPerWindow = opReuseWindows
	}
	base := c.g.tagBase + (c.seq%opsPerWindow)*stride
	c.seq++
	return base
}

func (c *Communicator) opTagStride() int {
	return 2*len(c.g.ranks) + 2
}

// next and prev are the ring neighbours in group-rank space.
func (c *Communicator) next() int { return c.g.ranks[(c.rank+1)%len(c.g.ranks)] }
func (c *Communicator) prev() int {
	n := len(c.g.ranks)
	return c.g.ranks[(c.rank-1+n)%n]
}

// self returns this rank's transport actor ID.
func (c *Communicator) self() int { return c.g.ranks[c.rank] }
