package jaxpp

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// TestArchReachPlants lays the reachability row's other plants over the
// tree: an unused method on a live type fires it, a func that only a purego
// file calls does not, and an allowed name that something else reaches, or
// that names no declaration, fails it.
func TestArchReachPlants(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checking the module: nothing for the race detector")
	}
	row := archRules[slices.IndexFunc(archRules, func(r archRule) bool { return r.reach })]
	for _, c := range []struct {
		name  string
		plant fstest.MapFS
		want  string // the end of a hit the plant must cause; "" wants none
	}{
		{"an unused method on a live type",
			planted("cmd/jaxpp-bench/x.go", "package main\n\nfunc (e experiment) unreached() {}\n"),
			": cmd/jaxpp-bench.experiment.unreached"},
		{"a func that only a purego file calls", fstest.MapFS{
			"cmd/jaxpp-viz/x.go":        {Data: []byte("package main\n\nfunc puregoOnly() {}\n")},
			"cmd/jaxpp-viz/x_purego.go": {Data: []byte("//go:build purego\n\npackage main\n\nfunc init() { puregoOnly() }\n")},
		}, ""},
		{"an allowed name that something else reaches",
			planted("cmd/jaxpp-viz/x.go", "package main\n\nimport \"repro/internal/sim\"\n\nfunc init() { _ = (*sim.Config).DPSyncTime }\n"),
			"sim.(*Config).DPSyncTime: allowed, but reached without its entry"},
		{"an allowed name that nothing declares",
			withoutFunc(t, "internal/collective/bucket.go", "NumBuckets"),
			"collective.NumBuckets: allowed, but nothing declares it"},
	} {
		t.Run(c.name, func(t *testing.T) {
			hits, err := row.hits(overlayFS{top: c.plant, base: os.DirFS(".")})
			if err != nil {
				t.Fatal(err)
			}
			found := slices.ContainsFunc(hits, func(h string) bool { return strings.HasSuffix(h, c.want) })
			switch {
			case c.want == "" && len(hits) > 0:
				t.Errorf("the row fires on the plant:\n%s", strings.Join(hits, "\n"))
			case c.want != "" && !found:
				t.Errorf("no hit ends in %q; the hits:\n%s", c.want, strings.Join(hits, "\n"))
			}
		})
	}
}

// withoutFunc is a plant: the file p of the tree with its package-level func
// name cut out.
func withoutFunc(t *testing.T, p, name string) fstest.MapFS {
	src, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, p, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
			lo, hi := fset.Position(fd.Pos()).Offset, fset.Position(fd.End()).Offset
			if fd.Doc != nil {
				lo = fset.Position(fd.Doc.Pos()).Offset
			}
			return planted(p, string(src[:lo])+string(src[hi:]))
		}
	}
	t.Fatalf("%s declares no func %s", p, name)
	return nil
}

// The reachability row of arch_test.go type-checks the module from source,
// once per build configuration, and reports every package-level func,
// method, type, var and const that no root reaches. A name is reported only
// if no configuration finds it live: a func that only a purego file calls is
// live.
//
// Roots: main in every package main; every init; every package-level var
// whose initialiser makes a call; every declaration in reachRootDirs; and the
// row's allowed names.
//
// Liveness: a live declaration makes live what it refers to
// (types.Info.Uses), and a method of a live type is live when it implements
// an interface that live code names or one of reachIfaces.

// reachMaxAllowed bounds the row's allowed list, and reachOwner is the form
// of an entry's owner.
const reachMaxAllowed = 30

var reachOwner = regexp.MustCompile(`^(oracle|programming model \(§3\)|test support|direction [0-9]+(\([a-z]\))?)$`)

// reachConfigs are the build tags of each configuration checked.
var reachConfigs = [][]string{nil, {"purego"}}

// reachRootDirs hold declarations that are all roots: transporttest is test
// support for other packages' tests, and bench/ is the benchmark harness, a
// module of its own that is checked as one more package against this one.
var reachRootDirs = []string{"internal/transport/transporttest", "bench"}

// reachIfaces are the interfaces the standard library looks for in a value it
// is handed (error is always one too).
var reachIfaces = []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler",
	"sort.Interface", "io.Reader", "io.Writer", "io.Closer", "net/http.Handler", "flag.Value"}

// reachDecl is one package-level declaration of one configuration.
type reachDecl struct {
	key    string         // pkg.Name, pkg.T.M or pkg.(*T).M; pkg is the directory for package main
	pos    string         // file:line
	refs   []types.Object // what it refers to, in this module or not
	root   bool
	report bool // not an init, and not under reachRootDirs
}

// reachGraph is one configuration's declarations, and its named
// non-interface types, whose methods the interface step matches.
type reachGraph struct {
	decls  map[types.Object]*reachDecl
	named  []*types.TypeName
	ifaces []*types.Interface // reachIfaces and error
}

// unreachable runs the row over fsys: one "file:line: name" per declaration
// no root reaches, then one line per problem with allow: more than
// reachMaxAllowed entries, or an entry whose owner is not of reachOwner's
// form, that nothing declares, or that the roots and the other entries reach
// without it.
func unreachable(fsys fs.FS, allow map[string]string) ([]string, error) {
	reachCache.Lock()
	defer reachCache.Unlock()
	if reachCache.pkgs == nil {
		reachCache.pkgs = map[string]*reachPkg{}
		reachCache.impl = map[reachImpl][]types.Object{}
	}
	var graphs []*reachGraph
	for _, tags := range reachConfigs {
		g, err := loadReachGraph(fsys, tags)
		if err != nil {
			return nil, fmt.Errorf("build tags %v: %w", tags, err)
		}
		graphs = append(graphs, g)
	}
	declared := map[string]string{} // key → pos
	for _, g := range graphs {
		for _, d := range g.decls {
			if d.report {
				declared[d.key] = d.pos
			}
		}
	}
	// live is the union over the configurations of what the roots and the
	// allowed names other than skip reach.
	live := func(skip string) map[string]bool {
		keys := map[string]bool{}
		for _, g := range graphs {
			for o := range g.live(allow, skip) {
				keys[g.decls[o].key] = true
			}
		}
		return keys
	}
	var hits, stale []string
	reached := live("")
	for key, pos := range declared {
		if !reached[key] {
			hits = append(hits, pos+": "+key)
		}
	}
	if len(allow) > reachMaxAllowed {
		stale = append(stale, fmt.Sprintf("the allowed list has %d names, more than %d", len(allow), reachMaxAllowed))
	}
	for key, owner := range allow {
		switch {
		case !reachOwner.MatchString(owner):
			stale = append(stale, fmt.Sprintf("%s: allowed with owner %q, not oracle, programming model (§3), test support or a ROADMAP direction", key, owner))
		case declared[key] == "":
			stale = append(stale, key+": allowed, but nothing declares it")
		case live(key)[key]:
			stale = append(stale, key+": allowed, but reached without its entry")
		}
	}
	slices.Sort(hits)
	slices.Sort(stale)
	return append(hits, stale...), nil
}

// live returns the declarations that g's roots and the allowed names other
// than skip reach.
func (g *reachGraph) live(allow map[string]string, skip string) map[types.Object]bool {
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if !live[o] && g.decls[o] != nil {
			live[o] = true
			work = append(work, o)
		}
	}
	for o, d := range g.decls {
		if _, ok := allow[d.key]; d.root || ok && d.key != skip {
			mark(o)
		}
	}
	ifaces := slices.Clone(g.ifaces)
	for len(work) > 0 {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range g.decls[o].refs {
				mark(r)
				if tn, ok := r.(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !slices.Contains(ifaces, it) {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		// A live type's methods that implement a named interface are live.
		for _, tn := range g.named {
			if live[tn] {
				for _, it := range ifaces {
					for _, m := range implementing(tn, it) {
						mark(m)
					}
				}
			}
		}
	}
	return live
}

// reachCache keeps every package a configuration has checked, keyed by the
// build tags, the package's sources and the keys of the packages of this
// module it imports: a plant re-checks only the package it changes and those
// that import it. All packages share one file set and one standard library.
var reachCache struct {
	sync.Mutex
	pkgs map[string]*reachPkg
	impl map[reachImpl][]types.Object // see implementing
}

type reachImpl struct {
	tn *types.TypeName
	it *types.Interface
}

// reachPkg is one checked package and its declarations (ifaces unset).
type reachPkg struct {
	pkg   *types.Package
	graph *reachGraph
}

// implementing returns the methods of tn, or of *tn, that implement it, or
// nil if it does not; LookupFieldOrMethod finds them through embedding too.
func implementing(tn *types.TypeName, it *types.Interface) []types.Object {
	key := reachImpl{tn, it}
	if ms, ok := reachCache.impl[key]; ok {
		return ms
	}
	var ms []types.Object
	if ptr := types.NewPointer(tn.Type()); types.Implements(ptr, it) {
		for m := range it.Methods() {
			f, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			ms = append(ms, f)
		}
	}
	reachCache.impl[key] = ms
	return ms
}

// loadReachGraph type-checks, under the build tags tags, every package of
// the module that fsys holds, and bench/, in import order.
func loadReachGraph(fsys fs.FS, tags []string) (*reachGraph, error) {
	mod, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	std, err := loadStd()
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.BuildTags = tags
	ctx.CgoEnabled = false
	ctx.JoinPath = path.Join
	ctx.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }

	srcs := map[string]map[string][]byte{} // directory → file → source, this configuration's non-test files
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		case !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		dir, name := path.Split(p)
		dir = path.Clean(dir)
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, p)
		if srcs[dir] == nil {
			srcs[dir] = map[string][]byte{}
		}
		srcs[dir][p] = src
		return err
	})
	if err != nil {
		return nil, err
	}

	// dirOf maps an import path of this module to its directory.
	dirOf := func(ip string) (string, bool) {
		if ip == mod {
			return ".", true
		}
		return strings.CutPrefix(ip, mod+"/")
	}
	checked := map[string]*reachPkg{} // directory → package
	keys := map[string]string{}       // directory → cache key
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		dir, ok := dirOf(ip)
		if !ok {
			return std.importer.Import(ip)
		}
		if c := checked[dir]; c != nil {
			return c.pkg, nil
		}
		return nil, fmt.Errorf("%s: no non-test files in this configuration", ip)
	})}
	var check func(dir string, stack []string) error
	check = func(dir string, stack []string) error {
		if checked[dir] != nil {
			return nil
		}
		if slices.Contains(stack, dir) {
			return fmt.Errorf("import cycle: %v", append(stack, dir))
		}
		h := sha256.New()
		fmt.Fprintln(h, tags, dir)
		for _, p := range slices.Sorted(maps.Keys(srcs[dir])) {
			fmt.Fprintln(h, p, len(srcs[dir][p]))
			h.Write(srcs[dir][p])
			f, err := parser.ParseFile(token.NewFileSet(), p, srcs[dir][p], parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := dirOf(ip); ok && srcs[dep] != nil {
					if err := check(dep, append(stack, dir)); err != nil {
						return err
					}
					fmt.Fprintln(h, keys[dep])
				}
			}
		}
		key := fmt.Sprintf("%x", h.Sum(nil))
		keys[dir] = key
		if c := reachCache.pkgs[key]; c != nil {
			checked[dir] = c
			return nil
		}
		var files []*ast.File
		for _, p := range slices.Sorted(maps.Keys(srcs[dir])) {
			f, err := parser.ParseFile(std.fset, p, srcs[dir][p], parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(path.Join(mod, dir), std.fset, files, info)
		if err != nil {
			return err
		}
		c := &reachPkg{pkg: pkg, graph: &reachGraph{decls: map[types.Object]*reachDecl{}}}
		c.graph.add(std.fset, dir, pkg, files, info, under(dir, reachRootDirs))
		checked[dir] = c
		reachCache.pkgs[key] = c
		return nil
	}
	g := &reachGraph{decls: map[types.Object]*reachDecl{}, ifaces: std.ifaces}
	for _, dir := range slices.Sorted(maps.Keys(srcs)) {
		if err := check(dir, nil); err != nil {
			return nil, err
		}
		maps.Copy(g.decls, checked[dir].graph.decls)
		g.named = append(g.named, checked[dir].graph.named...)
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// add records the package-level declarations of one checked package; root
// makes them all roots.
func (g *reachGraph) add(fset *token.FileSet, dir string, pkg *types.Package, files []*ast.File, info *types.Info, root bool) {
	label := pkg.Name()
	if label == "main" {
		label = dir
	}
	decl := func(o types.Object, n ast.Node) *reachDecl {
		pos := fset.Position(n.Pos())
		d := &reachDecl{key: label + "." + o.Name(), pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), root: root, report: !root}
		seen := map[types.Object]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				r := info.Uses[id]
				if f, ok := r.(*types.Func); ok {
					r = f.Origin()
				}
				if !seen[r] {
					seen[r] = true
					d.refs = append(d.refs, r)
				}
			}
			return true
		})
		g.decls[o] = d
		return d
	}
	for _, f := range files {
		for _, n := range f.Decls {
			switch n := n.(type) {
			case *ast.FuncDecl:
				o := info.Defs[n.Name]
				d := decl(o, n)
				switch {
				case n.Recv != nil:
					recv := o.Type().(*types.Signature).Recv().Type()
					ptr, isPtr := recv.(*types.Pointer)
					if isPtr {
						recv = ptr.Elem()
					}
					t := recv.(*types.Named).Origin().Obj().Name()
					if isPtr {
						t = "(*" + t + ")"
					}
					d.key = label + "." + t + "." + o.Name()
				case n.Name.Name == "init":
					d.root, d.report = true, false
				case n.Name.Name == "main" && pkg.Name() == "main":
					d.root = true
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						o := info.Defs[spec.Name].(*types.TypeName)
						decl(o, spec)
						named, ok := o.Type().(*types.Named) // not an alias
						if _, iface := o.Type().Underlying().(*types.Interface); ok && !iface && named.TypeParams().Len() == 0 {
							g.named = append(g.named, o)
						}
					case *ast.ValueSpec:
						calls := n.Tok == token.VAR && makesCall(spec, info)
						for _, id := range spec.Names {
							if id.Name != "_" {
								d := decl(info.Defs[id], spec)
								d.root = d.root || calls
							}
						}
					}
				}
			}
		}
	}
}

// makesCall reports whether a var initialiser calls a function while the
// package initialises. A conversion or a builtin is not a call, and neither
// is what a func literal's body calls.
func makesCall(spec *ast.ValueSpec, info *types.Info) bool {
	calls := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				switch info.Uses[callee(n.Fun)].(type) {
				case *types.TypeName, *types.Builtin:
				case nil:
					switch ast.Unparen(n.Fun).(type) {
					case *ast.ArrayType, *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType,
						*ast.InterfaceType, *ast.StructType: // a conversion to a type literal
					default:
						calls = true
					}
				default:
					calls = true
				}
			}
			return !calls
		})
	}
	return calls
}

// callee is the name a call's function expression resolves through, or nil.
func callee(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// reachStd is the standard library every check reads, loaded once.
var reachStd reachStdlib

// reachStdlib is the file set all checked packages share, one importer of
// the compiler's export data for the standard library, and the interfaces of
// reachIfaces and error.
type reachStdlib struct {
	once     sync.Once
	fset     *token.FileSet
	importer types.Importer
	ifaces   []*types.Interface
	err      error
}

func loadStd() (*reachStdlib, error) {
	reachStd.once.Do(func() { reachStd.err = reachStd.load() })
	return &reachStd, reachStd.err
}

// load runs one go list -export -deps over the standard packages that the
// tree in the working directory imports and those of reachIfaces, and reads
// the export data it names.
func (std *reachStdlib) load() error {
	args := []string{"list", "-export", "-deps", "-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}"}
	for _, name := range reachIfaces {
		args = append(args, name[:strings.LastIndex(name, ".")])
	}
	err := fs.WalkDir(os.DirFS("."), ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if first, _, _ := strings.Cut(ip, "/"); !strings.Contains(first, ".") && first != "repro" && !slices.Contains(args, ip) {
				args = append(args, ip)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if ip, file, ok := strings.Cut(line, "="); ok {
			export[ip] = file
		}
	}
	std.fset = token.NewFileSet()
	std.importer = importer.ForCompiler(std.fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := export[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s: the tree does not import it", ip)
		}
		return os.Open(file)
	})
	for _, name := range reachIfaces {
		i := strings.LastIndex(name, ".")
		pkg, err := std.importer.Import(name[:i])
		if err != nil {
			return err
		}
		std.ifaces = append(std.ifaces, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	std.ifaces = append(std.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return nil
}
