package transporttest

import (
	"math"

	"repro/internal/tensor"
)

// PoisonRecycled machine-checks that nothing reads a tensor after its
// recycle — the rule that lets Send leave the sender owning what it sent and
// the store recycle a buffer at its liveness delete. It installs a
// tensor.Recycle hook that fills the storage of every recycled tensor with
// NaN before the pool takes it, and returns the hook it replaced. A read of
// that storage afterwards — by a sender that recycled what it still reads, or
// by anyone holding a tensor a store recycled — computes NaN, so a suite that
// compares losses or parameters bit for bit goes red. Borrowed views are left
// alone: the pool drops them, and their storage stays their owner's. A
// package installs it from TestMain, for every test it runs.
func PoisonRecycled() (prev func(*tensor.Tensor)) {
	nan := math.NaN()
	return tensor.SetRecycleHook(func(t *tensor.Tensor) {
		if t.Borrowed() {
			return
		}
		d := t.Data()
		d = d[:cap(d)]
		for i := range d {
			d[i] = nan
		}
	})
}
