package jaxpp

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// archRule is one structural rule of the tree: re may match at most max
// times in the files the rule covers. Each rule keeps out a path that was
// deleted; its plant brings that path back in one file, and the rule must
// fire on it, so every run re-checks that the rule can still see what it
// guards.
type archRule struct {
	name    string            // the rule
	pr      int               // the numbered change whose deletion it guards
	re      string            // matched against every line of a covered file
	except  string            // a line matching this too does not count
	in      []string          // covered files and directories; none is the whole tree
	skip    []string          // files and directories under in that are not covered
	tests   bool              // _test.go files are covered too
	files   bool              // re matches the paths of covered files, not their lines
	imports bool              // re matches the import paths reachable from package in[0]
	reach   bool              // hits are the declarations no root reaches (reach_test.go); re is unused
	allow   map[string]string // reach: names kept as roots, each with its owner; the list may only shrink
	max     int               // allowed matches
	plant   fstest.MapFS      // one file laid over the tree that makes the rule fire
}

func planted(path, src string) fstest.MapFS {
	return fstest.MapFS{path: &fstest.MapFile{Data: []byte(src)}}
}

var archRules = []archRule{
	{name: "one transport contract: no sender-ownership query, since every Send captures",
		pr: 23, re: `OwnsSent`, tests: true,
		plant: planted("internal/runtime/x_test.go", "if tr.OwnsSent() {\n")},
	{name: "one transport contract: one interface declares Send",
		pr: 15, re: `^[ \t]+Send\(from, to, tag int`, in: []string{"internal", "cmd"}, max: 1,
		plant: planted("internal/dist/x.go", "type sender interface {\n\tSend(from, to, tag int, t *tensor.Tensor)\n}\n")},
	{name: "one transport contract: no anonymous-interface type assertion",
		pr: 15, re: `\.\(interface *\{`, in: []string{"internal", "cmd"},
		plant: planted("cmd/jaxpp-train/x.go", "if l, ok := tr.(interface{ SendLent() }); ok {\n")},
	{name: "one ring loop: one Recv site",
		pr: 17, re: `c\.g\.tr\.Recv\(`, in: []string{"internal/collective"}, max: 1,
		plant: planted("internal/collective/x.go", "t, err := c.g.tr.Recv(c.self(), from, tag)\n")},
	{name: "one ring loop: two Send sites, the chunk helper's and Barrier's",
		pr: 17, re: `c\.g\.tr\.Send\(`, in: []string{"internal/collective"}, max: 2,
		plant: planted("internal/collective/x.go", "c.g.tr.Send(c.self(), to, tag, a)\nc.g.tr.Send(c.self(), to, tag, b)\n")},
	{name: "one unsafe file: f64image_le.go alone imports unsafe",
		pr: 23, re: `"unsafe"`, skip: []string{"internal/dist/f64image_le.go"},
		plant: planted("internal/tensor/x.go", "package tensor\n\nimport \"unsafe\"\n")},
	{name: "no staging switch: a transport decides whether a send is copied",
		pr: 24, re: `SyncSends|SendStarted|SendDone`, tests: true,
		plant: planted("internal/runtime/x.go", "if opts.SyncSends {\n")},
	{name: "one queue per frame: no shaping wrapper",
		pr: 25, re: `ShapedTransport|shapedMesh`, tests: true,
		plant: planted("internal/dist/x.go", "type ShapedTransport struct{}\n")},
	{name: "one queue per frame: the peer link's sender worker is internal/dist's one mailbox",
		pr: 24, re: `NewMailbox`, in: []string{"internal/dist"}, skip: []string{"internal/dist/mailbox.go"}, max: 1,
		plant: planted("internal/dist/x.go", "q := NewMailbox(0, sink)\n")},
	{name: "one queue per frame: internal/runtime does not import internal/dist",
		pr: 24, re: `^repro/internal/dist$`, in: []string{"internal/runtime"}, imports: true,
		plant: planted("internal/runtime/x.go", "package runtime\n\nimport _ \"repro/internal/dist\"\n")},
	{name: "one queue per frame: no sender mailbox in the in-process runtime",
		pr: 24, re: `NewMailbox`, in: []string{"internal/runtime", "jaxpp.go"}, tests: true,
		plant: planted("jaxpp.go", "mb := dist.NewMailbox(1, send)\n")},
	{name: "one queue per frame: internal/runtime starts only StepInto's one dispatch per actor",
		pr: 24, re: `go func`, in: []string{"internal/runtime"}, max: 1,
		plant: planted("internal/runtime/x.go", "go func() { a.send(m) }()\n")},
	{name: "one frame per message: no batch envelope or coalescer",
		pr: 30, re: `frameBatch|EncodeBatchFrame|coalesceFlushBytes|frames_coalesced`, tests: true,
		plant: planted("internal/dist/x.go", "const frameBatch = 3\n")},
	{name: "one job kind: a payload is a training job",
		pr: 28, re: `KindCollective|CollectiveSpec|RunCollective`, tests: true,
		plant: planted("internal/distrun/x.go", "type CollectiveSpec struct{}\n")},
	{name: "one job kind: CI runs no collective verification job",
		pr: 28, re: `-collective`, in: []string{".github/workflows/ci.yml"},
		plant: planted(".github/workflows/ci.yml", "run: bin/jaxpp-train -distributed -collective allreduce\n")},
	{name: "no world group: the resume step is checked at the control-plane barrier",
		pr: 31, re: `worldGroupID|worldComm`, tests: true,
		plant: planted("internal/distrun/x.go", "comm := worldComm(sess)\n")},
	{name: "no world group: internal/distrun gathers only inside a stage's replica group",
		pr: 31, re: `AllGatherInto\(`, in: []string{"internal/distrun"},
		plant: planted("internal/distrun/x.go", "err := comm.AllGatherInto(shard, gathered)\n")},
	// bench/ is skipped: its metric table still names the deleted scope.
	{name: "no world group: no per-step loss gather",
		pr: 29, re: `step/loss_gather`, tests: true, skip: []string{"bench"},
		plant: planted("internal/distrun/x.go", "sp := obs.Track(\"step/loss_gather\")\n")},
	{name: "one control loop: both ends run serve and monitor, and samples ride the ping as JSON",
		pr: 32, re: `coordinatorServe|workerServe|coordinatorMonitor|workerMonitor|StepFrame`, tests: true,
		plant: planted("internal/obs/x.go", "func AppendStepFrame(b []byte) []byte { return b }\n")},
	{name: "one path for a step sample: no process-global step ring and no second obs gate",
		pr: 35, re: `EnableSteps|StepsEnabled|ReadStepsSince|SyncLocal`, tests: true,
		plant: planted("internal/obs/x.go", "func EnableSteps() { stepGate.Store(true) }\n")},
	{name: "one yield: a send gives up the P once, in the transport, not per call site",
		pr: 36, re: `\bGosched\(`, in: []string{"internal", "cmd", "jaxpp.go"}, max: 1,
		plant: planted("internal/runtime/x.go", "for pc := range prog {\n\tgoruntime.Gosched()\n")},
	{name: "one rounding per product: no fused multiply-add in Go or assembly",
		pr: 38, re: `\bVF(N)?M(ADD|SUB)|math\.FMA\(`, in: []string{"internal"},
		plant: planted("internal/tensor/x.s", "\tVFMADD231PD Y1, Y2, Y3\n")},
	{name: "one device per actor: a segment runs as its compiled program, not through a partitioner",
		pr: 39, re: `SPMDDevices|spmd\.(Partition|Run)\(|"repro/internal/(spmd|mesh)"`, tests: true,
		plant: planted("internal/runtime/x.go", "plan, err := spmd.Partition(g, m, specs)\n")},
	{name: "one exp and one log: tensor owns them, so their bits do not follow the CPU's FMA flag",
		pr: 41, re: `math\.(Exp|Log)\b`, except: `^\s*//`, in: []string{"internal"},
		plant: planted("internal/model/x.go", "y := math.Exp(x)\n")},
	{name: "one schedule replay: only internal/schedule walks the task lists, in Replay",
		pr: 46, re: `heads\[`, in: []string{"internal", "cmd", "examples"}, skip: []string{"internal/schedule"},
		plant: planted("internal/sim/x.go", "for a := range heads {\n\theads[a]++\n}\n")},
	{name: "one data-plane socket kind: the transport listens and dials Unix-domain sockets, only the control plane speaks TCP",
		pr: 47, re: `"tcp"`, in: []string{"internal/dist"}, skip: []string{"internal/dist/bootstrap.go"},
		plant: planted("internal/dist/x.go", "conn, err := net.Dial(\"tcp\", addr)\n")},
	{name: "one level of concurrency: actors and ranks; no goroutine in the kernels or the interpreter",
		pr: 48, re: `(^|[{;])\s*go\s+[\w(]`, in: []string{"internal/tensor", "internal/interp"},
		plant: planted("internal/tensor/x.go", "go func() {}()\n")},
	// The allowed names are roots. An entry that something else reaches, or
	// that names no declaration, fails the row, so the list may only shrink.
	{name: "every declaration is reachable: from a main, an init, a var initialiser's call, transporttest, bench/ or an allowed name",
		reach: true, allow: map[string]string{
			"interp.Eval": "oracle", // the reference executor the compiled programs are tested against

			"jaxpp.CustomSchedule":      "programming model (§3)", // a user-defined schedule (§4.2)
			"trace.(*Builder).Graph":    "programming model (§3)", // a loss emits an op the Builder has no method for
			"trace.(*Builder).Mul":      "programming model (§3)",
			"trace.(*Builder).Reshape":  "programming model (§3)",
			"trace.(*Builder).Scale":    "programming model (§3)",
			"trace.(*Builder).Softmax":  "programming model (§3)",
			"trace.(*Builder).Sub":      "programming model (§3)",
			"trace.(*Builder).Sum":      "programming model (§3)",
			"trace.(*Builder).SumAxis0": "programming model (§3)",
			"trace.(*Builder).Tanh":     "programming model (§3)",
			"trace.(*Builder).Zeros":    "programming model (§3)",

			// Used by the tests of more than one package.
			"collective.NumBuckets":       "test support",
			"dist.(*LocalMesh).Endpoint":  "test support",
			"dist.(*LocalMesh).SendCount": "test support",
			"ir.(*Graph).MustEmit":        "test support",
			"tensor.(*Tensor).At":         "test support",
			"tensor.AllClose":             "test support",
			"tensor.MaxAbsDiff":           "test support",
			"tensor.MustFromSlice":        "test support",

			"sim.(*Config).DPSyncTime": "direction 11", // the simulator's dpSync term, which the surrogate checks compare against
		},
		plant: planted("cmd/jaxpp-viz/x.go", "package main\n\nfunc unreached() {}\n")},
	{name: "one perf instrument: no BENCH snapshot at the root",
		pr: 18, re: `^BENCH_[^/]*\.json$`, files: true,
		plant: planted("BENCH_pr99.json", "{}\n")},
	{name: "one perf instrument: cmd/jaxpp-bench measures nothing bench/ measures",
		pr: 18, re: `encoding/json|os/exec|MemStats`, in: []string{"cmd/jaxpp-bench"},
		plant: planted("cmd/jaxpp-bench/x.go", "import \"encoding/json\"\n")},
	{name: "one perf instrument: cmd/jaxpp-bench has one flag, -exp",
		pr: 18, re: `flag\.[A-Z]\w*\(`, except: `flag\.Parse\(`, in: []string{"cmd/jaxpp-bench"}, max: 1,
		plant: planted("cmd/jaxpp-bench/x.go", "jsonOut := flag.String(\"json\", \"\", \"\")\n")},
	{name: "one worker binary: jaxpp-worker is the only worker entry point",
		pr: 33, re: `dist\.Join\(|RunElasticWorker\(`, in: []string{"cmd/jaxpp-train"},
		plant: planted("cmd/jaxpp-train/x.go", "sess, err = dist.Join(coordinator, opts)\n")},
}

// TestArch runs every rule over the tree, then over the tree with the rule's
// plant laid on top, where it must fire.
func TestArch(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine reading files: nothing for the race detector, which makes the scans 20x slower")
	}
	tree := os.DirFS(".")
	t.Run("clean", func(t *testing.T) {
		for _, r := range archRules {
			t.Run(r.name, func(t *testing.T) {
				hits, err := r.hits(tree)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case r.reach && len(hits) > 0:
					t.Errorf("%d unreachable declarations or stale allowed names: delete each, move one only its package's tests use into them, or allow it with an owner:\n%s",
						len(hits), strings.Join(hits, "\n"))
				case len(hits) > r.max:
					t.Errorf("%d matches of %s, want at most %d (guards the deletion in change %d):\n%s",
						len(hits), r.re, r.max, r.pr, strings.Join(hits, "\n"))
				}
			})
		}
	})
	t.Run("planted", func(t *testing.T) {
		for _, r := range archRules {
			t.Run(r.name, func(t *testing.T) {
				hits, err := r.hits(overlayFS{top: r.plant, base: tree})
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) <= r.max {
					t.Errorf("the rule does not fire on its plant: %d matches of %s, allowed %d", len(hits), r.re, r.max)
				}
			})
		}
	})
}

// hits lists what r matches in fsys, one "path:line: text" per match.
func (r archRule) hits(fsys fs.FS) ([]string, error) {
	if r.reach {
		return unreachable(fsys, r.allow)
	}
	re := regexp.MustCompile(r.re)
	if r.imports {
		return importHits(fsys, r.in[0], re)
	}
	var except *regexp.Regexp
	if r.except != "" {
		except = regexp.MustCompile(r.except)
	}
	var hits []string
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			// Hidden directories hold no source, except ci.yml.
			if p != "." && p != ".github" && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		case !r.covers(p):
			return nil
		case r.files:
			if re.MatchString(p) {
				hits = append(hits, p)
			}
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if re.MatchString(line) && (except == nil || !except.MatchString(line)) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	return hits, err
}

// covers reports whether r reads the file at p: Go and assembly sources, and
// any other file r names in in. This file is never covered: it names every
// pattern.
func (r archRule) covers(p string) bool {
	switch {
	case p == "arch_test.go":
		return false
	case !r.files && !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, ".s") && !slices.Contains(r.in, p):
		return false
	case !r.tests && strings.HasSuffix(p, "_test.go"):
		return false
	}
	return (len(r.in) == 0 || under(p, r.in)) && !under(p, r.skip)
}

func under(p string, roots []string) bool {
	for _, root := range roots {
		if p == root || strings.HasPrefix(p, root+"/") {
			return true
		}
	}
	return false
}

// importHits walks the non-test imports of the package in dir and, through
// every package of this module they reach, returns the import paths re
// matches. Build constraints are ignored, so every build is held to the rule.
func importHits(fsys fs.FS, dir string, re *regexp.Regexp) ([]string, error) {
	mod, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	var hits []string
	seen := map[string]bool{}
	var visit func(dir string) error
	visit = func(dir string) error {
		entries, err := fs.ReadDir(fsys, dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			p := path.Join(dir, name)
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if seen[ip] {
					continue
				}
				seen[ip] = true
				if re.MatchString(ip) {
					hits = append(hits, p+": imports "+ip)
				}
				if sub, ok := strings.CutPrefix(ip, mod+"/"); ok {
					if err := visit(sub); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return hits, visit(dir)
}

func modulePath(fsys fs.FS) (string, error) {
	gomod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("go.mod names no module")
}

// overlayFS lays top over base: a file in top hides base's file of the same
// path, and a directory lists the entries of both.
type overlayFS struct{ top, base fs.FS }

func (o overlayFS) Open(name string) (fs.File, error) {
	if f, err := o.top.Open(name); err == nil {
		return f, nil
	}
	return o.base.Open(name)
}

func (o overlayFS) ReadDir(name string) ([]fs.DirEntry, error) {
	entries, err := fs.ReadDir(o.base, name)
	top, topErr := fs.ReadDir(o.top, name)
	if err != nil && topErr != nil {
		return nil, err
	}
	for _, e := range top {
		i := slices.IndexFunc(entries, func(b fs.DirEntry) bool { return b.Name() == e.Name() })
		if i < 0 {
			entries = append(entries, e)
		} else {
			entries[i] = e
		}
	}
	slices.SortFunc(entries, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return entries, nil
}
