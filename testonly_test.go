package routesync_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the internal/ functions, methods and struct
// fields that no production code uses (or, for a knob, sets) but that
// stay, each with its reason: tests in another package use it as a
// fixture (its doc comment names that use), tests set it as a seam, or
// it waits for a decision on its whole mechanism.
var testOnlyAllowed = map[string]string{
	"cluster.Grow":                            "the ClusterGrow benchmark rows and periodic's reference stepper run the unsorted cluster rule",
	"experiments.BuildChurnBench":             "the NetsimChurn benchmark rows and the leak test build the churn scenario without its monitor",
	"experiments.NetScaleConfig.RoutersPerAS": "tests shrink the routing domains to keep the sweep small",
	"experiments.PathConfig.Profile":          "crossvalidation_test runs the path scenario on a compressed protocol profile",
	"netsim.Link.SetDown":                     "routing, linkstate and workload tests fail links during setup",
	"netsim.LANConfig.QueueCap":               "the tx-done boundary tests need a one-packet LAN queue to tell a busy transmitter from a free one",
	"netsim.Network.BuildChain":               "netsim and workload tests and the NetsimForward benchmark build chains",
	"netsim.Network.BuildRandomGraph":         "routing and linkstate convergence tests build random graphs",
	"netsim.Network.HopDistances":             "routing and linkstate tests check installed routes against BFS",
	"netsim.Network.NumPartitions":            "kept until partitioning is kept or deleted as a whole",
	"netsim.Network.PartitionOf":              "kept until partitioning is kept or deleted as a whole",
	"netsim.Node.Failed":                      "faults and protocol tests check crash state",
	"netsim.Node.Stats":                       "partition K-invariance and link-state tests read per-node packet counters",
	"netsim.NodeStats.Received":               "partition K-invariance tests compare it; goes when partitioning goes",
	"netsim.NodeStats.DeliveredLocal":         "partition K-invariance tests compare it; goes when partitioning goes",
	"netsim.NodeStats.ForwardedOut":           "partition K-invariance tests compare it; goes when partitioning goes",
	"netsim.NodeStats.RoutingIn":              "partition K-invariance tests compare it; goes when partitioning goes",
	"netsim.NodeStats.Dropped":                "partition K-invariance tests compare it; goes when partitioning goes",
	"rng.Source.Split":                        "the parallel package's seeded-run tests derive streams",
	"runner.Options.Errout":                   "runner tests capture per-experiment failures instead of writing them to stderr",
	"runner.Options.Registry":                 "runner tests run fresh registries of stub experiments instead of Default",
	"stats.Series.YRange":                     "root-package and experiments tests bound figure series",
}

// TestNoTestOnlyAPI fails when a function, method or struct field
// declared in a non-test file under internal/ is used by no production
// code: the root package, cmd/, examples/, simbench/ (tests included: the
// benchmark's smoke tests pin what it calls), and internal/'s non-test
// files.
//
// A function is used when reachable: from internal/'s package-level
// initializers and init functions and from every function the other
// roots refer to, along every function reference, including calls
// through interfaces the reached code invokes.
//
// A field (of a generic type: its origin) is used when production code
//   - selects it, except as the target of an assignment or of ++/-- (an
//     indexed target, f[i] = v, writes f too) or as a composite-literal
//     key; a promoted selection reads each embedded field on its way;
//   - passes a value containing it to fmt or encoding/json (exported
//     fields only), except below a type whose method set has String or
//     Error, which prints it instead; the value's static type at the
//     call is what counts, so a wrapper that takes any (such as
//     experiments.Result.Notef) hides it: marshal or print the concrete
//     value where it is built;
//   - exposes its type, if it is exported, through the root package's
//     exported API.
//
// An exported field of a struct type named *Config or *Options (a knob)
// must also be set by production code: assigned (with any operator),
// incremented or decremented, or keyed in a composite literal. A set in
// the field's own package inside an if whose condition reads the same
// field fills in a default and does not count: a knob that only tests
// turn is a constant, and its other values are code only tests reach.
//
// Code only tests use belongs in a _test.go file of its package or is
// deleted; the few exceptions are in testOnlyAllowed with their reason.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, callers := loadModule(t, ".", "routesync")
	used := l.reached(callers)
	l.markReads(used)
	set := map[types.Object]bool{}
	l.markSets(set)
	dead := map[string]types.Object{}
	declared := map[string]bool{}
	for obj, name := range l.decls {
		declared[name] = true
		if !used[obj] || l.knobs[obj] && !set[obj] {
			dead[name] = obj
		}
	}
	for name, reason := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("allowlist names %s, which no longer exists (%s)", name, reason)
		} else if dead[name] == nil {
			t.Errorf("allowlist names %s, which production code now uses", name)
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
		pos := l.fset.Position(dead[name].Pos())
		if _, ok := dead[name].(*types.Var); ok && used[dead[name]] {
			t.Errorf("%s: no production code sets knob %s; make it the value production runs and delete it, or allowlist it with a reason", pos, name)
		} else if ok {
			t.Errorf("%s: no production code reads field %s; delete it and its writes, or allowlist it with a reason", pos, name)
		} else {
			t.Errorf("%s: no production code reaches %s; delete it, move it into a _test.go file, or allowlist it with a reason", pos, name)
		}
	}
}

// TestFieldGuardRules runs the field check on the synthetic module in
// testdata/fieldguard. Each of its struct types exercises one rule, and
// its doc comment says whether the check must flag the type's fields.
func TestFieldGuardRules(t *testing.T) {
	l, _ := loadModule(t, filepath.Join("testdata", "fieldguard"), "fieldguard")
	read := map[types.Object]bool{}
	l.markReads(read)
	set := map[types.Object]bool{}
	l.markSets(set)
	var unread, unset []string
	for obj, name := range l.decls {
		if _, ok := obj.(*types.Var); ok && !read[obj] {
			unread = append(unread, name)
		}
		if l.knobs[obj] && !set[obj] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unread)
	sort.Strings(unset)
	want := "a.Exposed.hidden a.Indexed.M a.Marshaled.private a.Quiet.N a.TestOnly.N a.Written.N"
	if strings.Join(unread, " ") != want {
		t.Errorf("unread fields:\n got %v\nwant %v", unread, want)
	}
	if want := "a.DefaultConfig.N a.KnobConfig.N"; strings.Join(unset, " ") != want {
		t.Errorf("unset knobs:\n got %v\nwant %v", unset, want)
	}
}

// loadModule type-checks every package of the module rooted at base,
// whose module path is mod, and returns the loader with the packages
// outside internal/.
func loadModule(t *testing.T, base, mod string) (*apiLoader, []*loadedPkg) {
	l := newAPILoader(t, base, mod)
	var callers []*loadedPkg
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		dir, _ := filepath.Rel(base, path) // path lies under base
		name := d.Name()
		if dir != "." && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		p := l.load(dir)
		if p == nil || isInternal(dir) {
			return nil
		}
		callers = append(callers, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, callers
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

// apiLoader type-checks a module's packages from source (stdlib from
// compiler export data) and names every function and struct field
// declared under internal/.
type apiLoader struct {
	t     *testing.T
	base  string // module root directory
	mod   string // module path
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*loadedPkg // by directory relative to base
	decls map[types.Object]string
	knobs map[types.Object]bool // exported fields of *Config and *Options structs
}

func newAPILoader(t *testing.T, base, mod string) *apiLoader {
	fset := token.NewFileSet()
	return &apiLoader{
		t:     t,
		base:  base,
		mod:   mod,
		fset:  fset,
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  map[string]*loadedPkg{},
		decls: map[types.Object]string{},
		knobs: map[types.Object]bool{},
	}
}

// Import resolves the module's own packages (simbench's module shares the
// tree) from source and everything else from the standard library.
func (l *apiLoader) Import(path string) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		dir := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
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
	full := filepath.Join(l.base, dir)
	bp, err := build.Default.ImportDir(full, 0)
	if _, noGo := err.(*build.NoGoError); err != nil && !noGo {
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(full, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	path := l.mod
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	p.pkg, err = conf.Check(path, l.fset, p.files, p.info)
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
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					typ := recv.Type()
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					name = p.pkg.Name() + "." + typ.(*types.Named).Obj().Name() + "." + fd.Name.Name
				}
				l.decls[fn] = name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && !ts.Assign.IsValid() {
					typ := p.info.Defs[ts.Name].Type().Underlying()
					l.declareFields(p.pkg.Name()+"."+ts.Name.Name, typ)
					st, ok := typ.(*types.Struct)
					if ok && (strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); f.Exported() {
								l.knobs[f] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return p
}

// declareFields records the fields of a declared type's struct, and of
// the unnamed structs nested in it, under the type's name.
func (l *apiLoader) declareFields(prefix string, typ types.Type) {
	switch u := typ.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Name() != "_" {
				l.decls[f] = prefix + "." + f.Name()
				l.declareFields(prefix+"."+f.Name(), f.Type())
			}
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, map, channel
		l.declareFields(prefix, u.Elem())
	}
}

// reached walks function references from the production roots and
// returns every function it visits.
func (l *apiLoader) reached(callers []*loadedPkg) map[types.Object]bool {
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
	for obj := range l.decls {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
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

	seen := map[types.Object]bool{}
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
	return seen
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

// markReads records every field production code reads in read;
// TestNoTestOnlyAPI's doc comment lists the ways to read one.
func (l *apiLoader) markReads(read map[types.Object]bool) {
	for _, p := range l.pkgs {
		if p != nil {
			markFieldReads(p, read)
		}
	}
	if root := l.pkgs["."]; root != nil {
		w := &fieldWalk{read: read, seen: map[types.Type]bool{}, exportedOnly: true, api: true}
		for _, name := range root.pkg.Scope().Names() {
			if obj := root.pkg.Scope().Lookup(name); obj.Exported() {
				w.mark(obj.Type())
			}
		}
	}
}

// markFieldReads records the fields one package's code reads by
// selection or through a value it hands to fmt or encoding/json.
func markFieldReads(p *loadedPkg, read map[types.Object]bool) {
	written := map[*ast.Ident]bool{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, id := range writes(n) {
				written[id] = true
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := p.info.Selections[n]; ok {
					markEmbedded(sel, read)
				}
			case *ast.CallExpr:
				markReflected(p.info, n, read)
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
}

// markSets records every field production code sets in set;
// TestNoTestOnlyAPI's doc comment says which sets count.
func (l *apiLoader) markSets(set map[types.Object]bool) {
	for _, p := range l.pkgs {
		if p != nil {
			for _, f := range p.files {
				markFieldSets(p, f, nil, set)
			}
		}
	}
}

// markFieldSets records the fields that the code in n sets, except for
// the fields in defaulted, which the enclosing ifs' conditions read in
// their own package.
func markFieldSets(p *loadedPkg, n ast.Node, defaulted map[types.Object]bool, set map[types.Object]bool) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if is, ok := n.(*ast.IfStmt); ok {
			inner := map[types.Object]bool{}
			maps.Copy(inner, defaulted)
			ast.Inspect(is.Cond, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if v := field(id); v != nil && v.Pkg() == p.pkg {
						inner[v] = true
					}
				}
				return true
			})
			for _, part := range []ast.Node{is.Init, is.Cond} {
				if part != nil {
					markFieldSets(p, part, defaulted, set)
				}
			}
			markFieldSets(p, is.Body, inner, set)
			if is.Else != nil {
				markFieldSets(p, is.Else, inner, set)
			}
			return false
		}
		for _, id := range writes(n) {
			if v := field(id); v != nil && !defaulted[v] {
				set[v] = true
			}
		}
		return true
	})
}

// writes returns the identifiers through which node n may write a field:
// the selector of each assignment or ++/-- target (an indexed target,
// x.f[i] = v, writes f) and a composite-literal key.
func writes(n ast.Node) []*ast.Ident {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	case *ast.KeyValueExpr:
		if id, ok := n.Key.(*ast.Ident); ok {
			return []*ast.Ident{id}
		}
	}
	var ids []*ast.Ident
	for _, e := range targets {
		e = ast.Unparen(e)
		for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
			e = ast.Unparen(ix.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			ids = append(ids, sel.Sel)
		}
	}
	return ids
}

// markEmbedded records the embedded fields a promoted selection passes
// through on its way to the selected field or method.
func markEmbedded(sel *types.Selection, read map[types.Object]bool) {
	typ := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if ptr, ok := typ.Underlying().(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		read[f.Origin()] = true
		typ = f.Type()
	}
}

// markReflected records the fields that a call into fmt or encoding/json
// prints or marshals: those of each argument passed as an empty
// interface, except below a type that formats itself.
func markReflected(info *types.Info, call *ast.CallExpr, read map[types.Object]bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "fmt" && fn.Pkg().Path() != "encoding/json") {
		return
	}
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	for i, arg := range call.Args {
		param := params.At(min(i, params.Len()-1)).Type()
		if sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid() {
			param = param.(*types.Slice).Elem()
		}
		if iface, ok := param.(*types.Interface); ok && iface.Empty() {
			w := &fieldWalk{read: read, seen: map[types.Type]bool{}, exportedOnly: fn.Pkg().Path() == "encoding/json"}
			w.mark(info.TypeOf(arg))
		}
	}
}

// fieldWalk marks the fields a reader of values of some type reaches:
// a reflective printer (fmt, or encoding/json, which sees exported fields
// only), or a user of the root package's exported API (api).
type fieldWalk struct {
	read         map[types.Object]bool
	seen         map[types.Type]bool
	exportedOnly bool
	// api follows exported methods and signatures too; a printer instead
	// stops at a type whose method set has String or Error.
	api bool
}

func (w *fieldWalk) mark(typ types.Type) {
	typ = types.Unalias(typ)
	if w.seen[typ] {
		return
	}
	w.seen[typ] = true
	if w.api {
		if n, ok := typ.(*types.Named); ok {
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					w.mark(m.Type())
				}
			}
		}
	} else if ms := types.NewMethodSet(typ); ms.Lookup(nil, "String") != nil || ms.Lookup(nil, "Error") != nil {
		return // printed through its own method
	}
	switch u := typ.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() || !w.exportedOnly {
				w.read[f.Origin()] = true
				w.mark(f.Type())
			}
		}
	case *types.Map:
		w.mark(u.Key())
		w.mark(u.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		w.mark(u.Elem())
	case *types.Signature:
		if w.api {
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					w.mark(tup.At(i).Type())
				}
			}
		}
	case *types.Interface:
		if w.api {
			for i := 0; i < u.NumMethods(); i++ {
				w.mark(u.Method(i).Type())
			}
		}
	}
}
