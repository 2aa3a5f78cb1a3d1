// Package transporttest holds test doubles and checks for the transport
// contract that more than one package's tests need.
package transporttest

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// LendChecker machine-checks the lent-send rule of transport.Transport —
// between a SendLent and the Settle that follows it the lender does not
// write the payload, recycle it, or let anyone else do either — on every
// transport it wraps. It fingerprints each payload at the lend and again once
// the wrapped Settle has returned, watches tensor.Recycle for storage that is
// still on loan, and reports to the test, as errors: a payload that changed
// in between, a recycle of lent storage, and, when the test ends, a loan that
// was never settled. One checker serves a whole test (every rank of a world);
// the wrapped transports behave exactly as the bare ones.
type LendChecker struct {
	t     testing.TB
	prev  func(*tensor.Tensor) // the recycle hook the checker replaced, still called
	mu    sync.Mutex
	loans []loan
	lends int
}

// loan is one payload between its SendLent and its Settle; seq numbers the
// checker's lends.
type loan struct {
	tr            *lendChecked
	from, to, tag int
	seq           int
	payload       []float64
	sum           uint64
}

// settledBy reports whether a Settle(from, to) on tr that began when the
// checker had made upto lends covers the loan.
func (l *loan) settledBy(tr *lendChecked, from, to, upto int) bool {
	return l.tr == tr && l.from == from && l.to == to && l.seq <= upto
}

// NewLendChecker starts a checker for t. It owns tensor's recycle hook until
// the test ends, and passes every recycle on to the hook it replaced (such as
// PoisonRecycled's).
func NewLendChecker(t testing.TB) *LendChecker {
	c := &LendChecker{t: t}
	c.prev = tensor.SetRecycleHook(c.recycled)
	t.Cleanup(func() {
		tensor.SetRecycleHook(c.prev)
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, l := range c.loans {
			t.Errorf("lendcheck: %d elements lent from %d to %d under tag %d were never settled", len(l.payload), l.from, l.to, l.tag)
		}
	})
	return c
}

// Lends reports how many payloads have been lent through the checker's
// transports so far (a test that expects lending to happen checks it did).
func (c *LendChecker) Lends() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lends
}

// Wrap returns inner with its lent sends under the checker's watch.
func (c *LendChecker) Wrap(inner transport.Transport) transport.Transport {
	return &lendChecked{Transport: inner, c: c}
}

type lendChecked struct {
	transport.Transport
	c *LendChecker
}

func (w *lendChecked) SendLent(from, to, tag int, payload, residual []float64) {
	l := loan{tr: w, from: from, to: to, tag: tag, payload: payload, sum: fingerprint(payload)}
	w.c.mu.Lock()
	w.c.lends++
	l.seq = w.c.lends
	w.c.loans = append(w.c.loans, l)
	w.c.mu.Unlock()
	w.Transport.SendLent(from, to, tag, payload, residual)
}

func (w *lendChecked) Settle(from, to int) error {
	// What this call settles is what was lent before it; a lend racing it from
	// another goroutine waits for the next one.
	w.c.mu.Lock()
	upto := w.c.lends
	w.c.mu.Unlock()
	err := w.Transport.Settle(from, to)
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	kept := w.c.loans[:0]
	for _, l := range w.c.loans {
		if !l.settledBy(w, from, to, upto) {
			kept = append(kept, l)
		} else if fingerprint(l.payload) != l.sum {
			w.c.t.Errorf("lendcheck: %d elements lent from %d to %d under tag %d were written before Settle returned", len(l.payload), from, to, l.tag)
		}
	}
	w.c.loans = kept
	return err
}

// recycled is the tensor.Recycle hook: pooling storage that overlaps an
// outstanding loan hands the bytes a socket may still be reading to the next
// GetScratch.
func (c *LendChecker) recycled(t *tensor.Tensor) {
	if c.prev != nil {
		defer c.prev(t)
	}
	if t.Borrowed() {
		return // the pool drops views; the storage stays its owner's
	}
	lo, hi := extent(t.Data()[:cap(t.Data())])
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.loans {
		if a, b := extent(l.payload); a < hi && lo < b {
			c.t.Errorf("lendcheck: a tensor was recycled while %d of its elements were on loan from %d to %d under tag %d", len(l.payload), l.from, l.to, l.tag)
		}
	}
}

// extent is the address range [lo, hi) of s's elements.
func extent(s []float64) (lo, hi uintptr) {
	lo = reflect.ValueOf(s).Pointer()
	return lo, lo + 8*uintptr(len(s))
}

// fingerprint is FNV-1a over the elements' bit patterns: any single changed
// element changes it.
func fingerprint(s []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}
