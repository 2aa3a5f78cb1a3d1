package transporttest_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// recorder is a testing.TB that keeps what the checker reports instead of
// failing, and runs its cleanups on demand.
type recorder struct {
	testing.TB
	errs     []string
	cleanups []func()
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func (r *recorder) finish() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

// TestLendCheckerReportsEachBreach pins what the checker is for: a clean
// lend–settle passes, and a write before the settle, a recycle of lent
// storage and a loan left unsettled are each reported, once.
func TestLendCheckerReportsEachBreach(t *testing.T) {
	cases := []struct {
		name   string
		breach func(tr transport.Transport, p *tensor.Tensor)
		want   string // "" for no report
	}{
		{"clean", func(tr transport.Transport, p *tensor.Tensor) {
			tr.SendLent(0, 1, 7, p.Data(), nil)
			tr.Settle(0, 1)
			p.Data()[3] = 1
			tensor.Recycle(p)
		}, ""},
		{"write", func(tr transport.Transport, p *tensor.Tensor) {
			tr.SendLent(0, 1, 7, p.Data()[10:20], nil)
			p.Data()[13] = 1
			tr.Settle(0, 1)
		}, "written before Settle returned"},
		{"recycle", func(tr transport.Transport, p *tensor.Tensor) {
			tr.SendLent(0, 1, 7, p.Data()[10:20], nil)
			tensor.Recycle(p)
			tr.Settle(0, 1)
		}, "recycled while 10 of its elements were on loan"},
		{"unsettled", func(tr transport.Transport, p *tensor.Tensor) {
			tr.SendLent(0, 1, 7, p.Data(), nil)
			tr.Settle(0, 2) // another pair's
		}, "never settled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{TB: t}
			tr := transporttest.NewLendChecker(rec).Wrap(runtime.NewChanTransport())
			tc.breach(tr, tensor.GetScratch(64))
			rec.finish()
			switch {
			case tc.want == "" && len(rec.errs) != 0:
				t.Fatalf("a clean lend was reported: %q", rec.errs)
			case tc.want != "" && (len(rec.errs) != 1 || !strings.Contains(rec.errs[0], tc.want)):
				t.Fatalf("reports %q, want one containing %q", rec.errs, tc.want)
			}
		})
	}
}
