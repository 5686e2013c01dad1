package routesync_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the internal/ functions and methods that no
// production code reaches but that stay exported, each with its reason:
// tests in another package use it as a fixture (its doc comment names
// that use), or it waits for a decision on its whole mechanism.
var testOnlyAllowed = map[string]string{
	"des.Simulator.Processed":         "netsim's CPU tests count fired events",
	"netsim.CPU.Occupy":               "netsim and workload tests stall a router's CPU",
	"netsim.Link.SetDown":             "routing, linkstate and workload tests fail links during setup",
	"netsim.Network.BuildRandomGraph": "routing and linkstate convergence tests build random graphs",
	"netsim.Network.HopDistances":     "routing and linkstate tests check installed routes against BFS",
	"netsim.Network.NumPartitions":    "kept until partitioning is kept or deleted as a whole",
	"netsim.Network.PartitionOf":      "kept until partitioning is kept or deleted as a whole",
	"netsim.Node.Failed":              "faults and protocol tests check crash state",
	"netsim.Node.Stats":               "workload tests read per-node packet counters",
	"rng.Source.Split":                "the parallel package's seeded-run tests derive streams",
	"stats.Series.YRange":             "core and experiments tests bound figure series",
}

// TestNoTestOnlyAPI fails when a function or method declared in a
// non-test file under internal/ is reached by no production code. The
// production roots are the root package, cmd/, examples/, simbench/
// (tests included: the benchmark's smoke tests pin what it calls), and
// the package-level initializers and init functions of internal/;
// reachability follows every function reference from there, including
// calls through interfaces the reached code invokes. Code that only tests
// reach belongs in a _test.go file of its package or is deleted; the few
// exceptions are listed in testOnlyAllowed with their reason.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := newAPILoader(t)
	var callers []*loadedPkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		p := l.load(path)
		if p == nil || isInternal(path) {
			return nil
		}
		callers = append(callers, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dead := l.unreached(callers)
	for name, reason := range testOnlyAllowed {
		if _, ok := l.declared[name]; !ok {
			t.Errorf("allowlist names %s, which no longer exists (%s)", name, reason)
		} else if _, ok := dead[name]; !ok {
			t.Errorf("allowlist names %s, which production code now reaches", name)
		}
	}
	var names []string
	for name := range dead {
		if _, ok := testOnlyAllowed[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: no production code reaches %s; delete it, move it into a _test.go file, or allowlist it with a reason", dead[name], name)
	}
}

// isInternal reports whether a slash-or-OS path lies under internal/.
func isInternal(dir string) bool {
	dir = filepath.ToSlash(dir)
	return dir == "internal" || strings.HasPrefix(dir, "internal/")
}

// loadedPkg is one type-checked package: production files only, except
// for simbench, whose tests count as production callers.
type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// apiLoader type-checks the module's packages from source (stdlib from
// compiler export data) and records every function declared under
// internal/.
type apiLoader struct {
	t        *testing.T
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*loadedPkg     // by directory
	declared map[string]token.Position // internal/ functions by name
	names    map[*types.Func]string
}

func newAPILoader(t *testing.T) *apiLoader {
	fset := token.NewFileSet()
	return &apiLoader{
		t:        t,
		fset:     fset,
		std:      importer.ForCompiler(fset, "gc", nil),
		pkgs:     map[string]*loadedPkg{},
		declared: map[string]token.Position{},
		names:    map[*types.Func]string{},
	}
}

// Import resolves routesync/... (simbench's module shares the tree) from
// source and everything else from the standard library.
func (l *apiLoader) Import(path string) (*types.Package, error) {
	if path == "routesync" || strings.HasPrefix(path, "routesync/") {
		dir := strings.TrimPrefix(strings.TrimPrefix(path, "routesync"), "/")
		if dir == "" {
			dir = "."
		}
		p := l.load(dir)
		if p == nil {
			l.t.Fatalf("import %q: no Go files in %s", path, dir)
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir once; it returns nil
// for a directory without production Go files.
func (l *apiLoader) load(dir string) *loadedPkg {
	dir = filepath.Clean(dir)
	if p, ok := l.pkgs[dir]; ok {
		return p
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			l.pkgs[dir] = nil
			return nil
		}
		l.t.Fatalf("%s: %v", dir, err)
	}
	names := bp.GoFiles
	if filepath.ToSlash(dir) == "simbench" {
		names = append(append([]string(nil), names...), bp.TestGoFiles...)
	}
	if len(names) == 0 {
		l.pkgs[dir] = nil
		return nil
	}
	p := &loadedPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.pkg, err = conf.Check(bp.ImportPath, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", dir, err)
	}
	l.pkgs[dir] = p
	if isInternal(dir) {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := p.pkg.Name() + "." + fd.Name.Name
				if fd.Recv != nil {
					name = p.pkg.Name() + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				l.names[fn] = name
				l.declared[name] = l.fset.Position(fd.Pos())
			}
		}
	}
	return p
}

// recvName is a receiver type expression's base type name.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// unreached walks function references from the production roots and
// returns the internal/ functions it never visits, by name.
func (l *apiLoader) unreached(callers []*loadedPkg) map[string]token.Position {
	// Every function an internal/ function body refers to, and the
	// references made outside any internal/ function body (the roots).
	edges := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	for dir, p := range l.pkgs {
		if p == nil || !isInternal(dir) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				var fn *types.Func
				if isFunc && fd.Name.Name != "init" {
					fn = p.info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if used, ok := p.info.Uses[id].(*types.Func); ok {
						if fn == nil {
							roots = append(roots, used.Origin())
						} else {
							edges[fn] = append(edges[fn], used.Origin())
						}
					}
					return true
				})
			}
		}
	}
	for _, p := range callers {
		for _, obj := range p.info.Uses {
			if used, ok := obj.(*types.Func); ok {
				roots = append(roots, used.Origin())
			}
		}
	}

	// Methods the standard library calls through its own interfaces.
	var stdIfaces []*types.Interface
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, ref := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}, {"encoding/json", "Marshaler"}} {
		pkg, err := l.std.Import(ref[0])
		if err != nil {
			l.t.Fatal(err)
		}
		stdIfaces = append(stdIfaces, pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface))
	}
	var methods []*types.Func
	for fn := range l.names {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		methods = append(methods, fn)
		for _, iface := range stdIfaces {
			if !implements(recv.Type(), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == fn.Name() {
					roots = append(roots, fn)
				}
			}
		}
	}

	seen := map[*types.Func]bool{}
	queue := roots
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		queue = append(queue, edges[fn]...)
		// A reached interface method reaches every internal/ method
		// that can stand behind it.
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, m := range methods {
			if m.Name() == fn.Name() && !seen[m] && implements(m.Type().(*types.Signature).Recv().Type(), iface) {
				queue = append(queue, m)
			}
		}
	}

	dead := map[string]token.Position{}
	for fn, name := range l.names {
		if !seen[fn] {
			dead[name] = l.declared[name]
		}
	}
	return dead
}

// implements reports whether a receiver type, or a pointer to it,
// satisfies iface.
func implements(recv types.Type, iface *types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
}
