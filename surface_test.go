package borgmoea_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// facadeTypes are the types borgmoea.go re-exports whose methods are
// part of its API. For their methods, as for the facade's own names, a use in
// any .go file counts, tests and examples included.
var facadeTypes = map[string]bool{
	"internal/core.Borg":             true, // borgmoea.Algorithm
	"internal/obs.Collector":         true, // borgmoea.TraceCollector
	"internal/obs.Forest":            true, // borgmoea.TraceForest
	"internal/federation.MigrantLog": true, // borgmoea.MigrantLog
	"internal/advisor.Federation":    true, // borgmoea.NewScalingFederation
}

// keptUnused lists the exported names in internal/ that no non-test
// file uses but that stay on purpose, each with its reason. Keep it
// short: a name earns a place here only when a test in another package
// needs it and so it cannot move into its own package's _test.go.
var keptUnused = map[string]string{
	"internal/experiment.CompareFederation": "ROADMAP item 16 either grows it into a hierarchy sweep or deletes it",
	"internal/master.Log.CanonicalBytes":    "the parallel and federation equivalence tests compare protocol logs by it",
	"internal/model.SyncTime":               "the synchronous driver's tests in parallel check its virtual time against it",
	"internal/obs.ValidateChromeTrace":      "the parallel and federation trace tests validate live Chrome traces with it",
}

// TestExportedNamesAreUsed keeps the module's surface sized by its
// callers. It type-checks every package of the module and fails for
//
//   - a name borgmoea.go declares that no other .go file uses;
//   - an exported function, type, var, const or method declared in
//     internal/ that no non-test file uses outside its own declaration.
//
// Uses are followed to a fixpoint from what the binaries, bench/ and
// the used facade names reach, so a name reached only from unused
// names is unused too, and a type's uses inside its own methods do not
// count. A method counts as used once its type is when it implements an
// interface the module declares or passes, or fmt.Stringer, error,
// sort.Interface or json.Marshaler. Methods of facadeTypes may be used
// by tests alone; every other name a test needs goes into its
// package's _test.go, or onto keptUnused with a reason.
func TestExportedNamesAreUsed(t *testing.T) {
	m, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	s := m.surface(t)
	for _, f := range s.unusedFacade {
		t.Errorf("borgmoea.%s is declared in borgmoea.go but no other .go file uses it", f)
	}
	for _, u := range s.unused {
		t.Errorf("%s: %s has no use outside tests; delete it, or move it into its package's _test.go", u.pos, u.key)
	}
	for _, k := range s.stale {
		t.Errorf("keptUnused lists %s, which no longer exists or now has a non-test use", k)
	}
}

// serverOnly are the standard packages that only internal/httpd and
// the binaries under cmd/ may link: the HTTP stack and the profilers.
var serverOnly = []string{"net/http", "net/http/pprof", "runtime/pprof", "crypto/tls"}

// TestHTTPStaysInServers keeps the HTTP stack out of every process
// that runs the algorithm without serving HTTP. It fails when the
// transitive non-test import closure of a module package outside
// internal/httpd and cmd/ (the facade and bench/ included) reaches a
// serverOnly package, or when cmd/borgexp's reaches net/http.
func TestHTTPStaysInServers(t *testing.T) {
	m, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	check := func(from string, banned ...string) {
		reached, err := m.importClosure(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if _, ok := reached[b]; !ok {
				continue
			}
			chain := []string{b}
			for p := reached[b]; p != ""; p = reached[p] {
				chain = append([]string{p}, chain...)
			}
			t.Errorf("%s links %s: %s", from, b, strings.Join(chain, " -> "))
		}
	}
	for _, p := range m.order {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, m.module), "/")
		if p.types == nil || rel == "internal/httpd" || strings.HasPrefix(rel, "cmd/") {
			continue
		}
		check(p.path, serverOnly...)
	}
	check(m.module+"/cmd/borgexp", "net/http")
}

// chromeExporter is the one non-test file that may spell the Chrome
// trace_event document's "traceEvents" key: the span forest's exporter
// and its validator.
const chromeExporter = "internal/obs/chrome.go"

// TestOneChromeExporter keeps the module at one Chrome trace exporter.
// It fails when a non-test .go file other than chromeExporter contains
// the "traceEvents" literal, the key every trace_event writer has to
// spell.
func TestOneChromeExporter(t *testing.T) {
	walkSources(t, ".", func(rel string, src []byte) {
		if rel != chromeExporter && strings.Contains(string(src), `"traceEvents"`) {
			t.Errorf("%s spells \"traceEvents\": write Chrome traces through %s (obs.WriteChromeForests)", rel, chromeExporter)
		}
	})
}

// qualitySampler is the one non-test file under internal/ and cmd/ that
// may estimate a front's hypervolume by Monte Carlo: the quality
// sampler, whose timeline Figures 3–4, the quality logs and the live
// gauges all read.
const qualitySampler = "internal/obs/quality.go"

// TestOneHypervolumeTimeline keeps the module at one in-run hypervolume
// timeline. It fails when a non-test .go file under internal/ or cmd/
// other than qualitySampler calls (or otherwise refers to)
// metrics.HypervolumeMCNondominated, or when one names OnCheckpoint,
// the per-driver hook a second timeline was fed by. bench/ measures its
// own final fronts and is not walked.
func TestOneHypervolumeTimeline(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		walkSources(t, root, func(rel string, src []byte) {
			f, err := parser.ParseFile(token.NewFileSet(), rel, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			declared := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declared[n.Name] = true
				case *ast.Ident:
					switch {
					case n.Name == "HypervolumeMCNondominated" && !declared[n] && rel != qualitySampler:
						t.Errorf("%s uses HypervolumeMCNondominated: sample hypervolume through %s (obs.QualitySampler)", rel, qualitySampler)
					case n.Name == "OnCheckpoint":
						t.Errorf("%s names OnCheckpoint: observe a run through an obs.QualitySampler", rel)
					}
				}
				return true
			})
		})
	}
}

// walkSources calls fn with the slash-separated path and contents of
// every non-test .go file under root, skipping hidden and testdata
// directories.
func walkSources(t *testing.T, root string, fn func(rel string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(path)
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(rel, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type surfaceReport struct {
	unusedFacade []string
	unused       []struct{ key, pos string }
	stale        []string
}

// moduleLoader type-checks the module's packages from source and the
// standard library from export data.
type moduleLoader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*modulePkg
	order  []*modulePkg
	// stdPkgs caches the standard packages importClosure has read.
	stdPkgs map[string]*build.Package
}

type modulePkg struct {
	path  string
	bp    *build.Package
	files []*ast.File // non-test files
	types *types.Package
	info  *types.Info
}

// loadRepo loads this repository once for every test that reads it.
var loadRepo = sync.OnceValues(func() (*moduleLoader, error) { return loadModule(".") })

func loadModule(root string) (*moduleLoader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &moduleLoader{
		fset:    token.NewFileSet(),
		root:    root,
		module:  modulePath(string(mod)),
		std:     importer.Default(),
		pkgs:    map[string]*modulePkg{},
		stdPkgs: map[string]*build.Package{},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if g, _ := filepath.Glob(filepath.Join(path, "*.go")); len(g) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = l.load(l.importPath(filepath.ToSlash(rel)))
		return err
	})
	return l, err
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

func (l *moduleLoader) importPath(rel string) string {
	if rel == "." {
		return l.module
	}
	return l.module + "/" + rel
}

func (l *moduleLoader) inModule(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// Import resolves the module's packages to their non-test type-check.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *moduleLoader) load(path string) (*modulePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); err != nil && !noGo {
		return nil, err
	}
	p := &modulePkg{path: path, bp: bp}
	l.pkgs[path] = p
	if len(bp.GoFiles) > 0 {
		if p.files, err = l.parse(dir, bp.GoFiles); err != nil {
			return nil, err
		}
		p.info = newInfo()
		conf := types.Config{Importer: l}
		if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
			return nil, err
		}
	}
	l.order = append(l.order, p)
	return p, nil
}

// importClosure maps every package the non-test imports of path reach,
// standard library included, to the package it was first reached from
// (path itself maps to "").
func (l *moduleLoader) importClosure(path string) (map[string]string, error) {
	from := map[string]string{path: ""}
	queue := []string{path}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		var bp *build.Package
		if l.inModule(p) {
			mp, err := l.load(p)
			if err != nil {
				return nil, err
			}
			bp = mp.bp
		} else {
			var err error
			if bp, err = l.stdPackage(p, from[p]); err != nil {
				return nil, err
			}
		}
		for _, imp := range bp.Imports {
			if _, seen := from[imp]; !seen && imp != "C" {
				from[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	return from, nil
}

// stdPackage reads a standard package's imports from its source. A
// vendored import (golang.org/x/...) resolves from the directory of
// the standard package that imports it, through GOROOT/src/vendor.
func (l *moduleLoader) stdPackage(path, importer string) (*build.Package, error) {
	if bp, ok := l.stdPkgs[path]; ok {
		return bp, nil
	}
	srcDir := filepath.Join(build.Default.GOROOT, "src")
	if imp, ok := l.stdPkgs[importer]; ok {
		srcDir = imp.Dir
	}
	bp, err := build.Import(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	l.stdPkgs[path] = bp
	return bp, nil
}

func (l *moduleLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// testUses type-checks every package's _test.go files and returns the
// keys of the names they use. A test package is checked against the
// non-test packages it imports, where the go tool rebuilds them against
// the package under test; the type errors that mismatch causes do not
// change which names an identifier resolves to, so they are ignored.
func (l *moduleLoader) testUses() (map[string]bool, error) {
	used := map[string]bool{}
	check := func(path string, files []*ast.File, imp types.Importer) *types.Package {
		info := newInfo()
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg, _ := conf.Check(path, l.fset, files, info)
		for id, obj := range info.Uses {
			if strings.HasSuffix(l.fset.Position(id.Pos()).Filename, "_test.go") {
				if k := l.key(obj); k != "" {
					used[k] = true
				}
			}
		}
		return pkg
	}
	for _, p := range l.order {
		self := p.types
		if len(p.bp.TestGoFiles) > 0 {
			tests, err := l.parse(p.bp.Dir, p.bp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			self = check(p.path, append(append([]*ast.File{}, p.files...), tests...), l)
		}
		if len(p.bp.XTestGoFiles) > 0 {
			xtests, err := l.parse(p.bp.Dir, p.bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			check(p.path+"_test", xtests, importerFunc(func(path string) (*types.Package, error) {
				if path == p.path {
					return self, nil
				}
				return l.Import(path)
			}))
		}
	}
	return used, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// key names a package-level object or a method as path.Name or
// path.Type.Name, with the path relative to the module; "" for
// anything else (locals, fields, other modules).
func (l *moduleLoader) key(obj types.Object) string {
	obj = origin(obj)
	if obj == nil || obj.Pkg() == nil || !l.inModule(obj.Pkg().Path()) {
		return ""
	}
	path := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), l.module), "/")
	if path == "" {
		path = l.module
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return path + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedOf returns the named type t or *t denotes, seeing through
// aliases, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// surface computes the fixpoint of uses and reports what is unused.
func (l *moduleLoader) surface(t *testing.T) surfaceReport {
	var (
		edges    = map[types.Object][]types.Object{}
		roots    []types.Object
		byKey    = map[string]types.Object{}
		ifaces   = l.standardInterfaces(t)
		seenFace = map[*types.Interface]bool{}
		facade   []types.Object
		// outsideFacade holds the facade names a non-test file other
		// than the facade uses.
		outsideFacade = map[types.Object]bool{}
	)
	addIface := func(t types.Type) {
		n := namedOf(t)
		if n == nil || n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 && !seenFace[it] {
			seenFace[it] = true
			ifaces = append(ifaces, it)
		}
	}
	collectIfaces := func(obj types.Object) {
		addIface(obj.Type())
		if sig, ok := obj.Type().(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					addIface(tup.At(i).Type())
				}
			}
		}
	}

	for _, p := range l.order {
		if p.types == nil {
			continue
		}
		internal := strings.HasPrefix(p.path, l.module+"/internal/")
		isFacade := p.path == l.module
		for _, obj := range p.info.Defs {
			if obj != nil {
				collectIfaces(obj)
			}
		}
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			byKey[l.key(obj)] = obj
			if isFacade {
				facade = append(facade, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						byKey[l.key(n.Method(i))] = n.Method(i)
					}
				}
			}
		}
		for _, f := range p.files {
			fromFacade := isFacade && filepath.Base(l.fset.Position(f.Pos()).Filename) == "borgmoea.go"
			// use links owner to every name the node uses; a nil owner
			// is a root (init, blank vars, anything outside internal/
			// but the facade).
			use := func(n ast.Node, owner, self types.Object) {
				ast.Inspect(n, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(p.info.Uses[id])
					if obj == nil || l.key(obj) == "" || obj == self {
						return true
					}
					collectIfaces(obj)
					if obj.Pkg().Path() == l.module && !fromFacade {
						outsideFacade[obj] = true
					}
					if owner == nil {
						roots = append(roots, obj)
					} else {
						edges[owner] = append(edges[owner], obj)
					}
					return true
				})
			}
			ownerOf := func(id *ast.Ident) types.Object {
				obj := p.info.Defs[id]
				if obj == nil || obj.Name() == "_" || (!internal && !isFacade) {
					return nil
				}
				return obj
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					owner := ownerOf(d.Name)
					var self types.Object
					if d.Recv != nil {
						if n := namedOf(p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()); n != nil {
							self = n.Obj()
						}
					} else if d.Name.Name == "init" {
						owner = nil
					}
					use(d, owner, self)
				case *ast.GenDecl:
					var last *ast.ValueSpec
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							use(s, ownerOf(s.Name), nil)
						case *ast.ValueSpec:
							if len(s.Values) > 0 || s.Type != nil {
								last = s
							}
							for _, name := range s.Names {
								owner := ownerOf(name)
								use(s, owner, nil)
								if last != nil && last != s {
									// An implicitly repeated const spec
									// uses what the last explicit one did.
									use(last, owner, nil)
								}
								if n := namedOf(p.info.Defs[name].Type()); n != nil && owner != nil && l.key(n.Obj()) != "" {
									edges[owner] = append(edges[owner], n.Obj())
								}
							}
						}
					}
				}
			}
		}
	}

	tests, err := l.testUses()
	if err != nil {
		t.Fatal(err)
	}
	var rep surfaceReport
	for _, obj := range facade {
		if outsideFacade[obj] || tests[l.key(obj)] {
			roots = append(roots, obj)
		} else if obj.Exported() {
			rep.unusedFacade = append(rep.unusedFacade, obj.Name())
		}
	}
	for k, obj := range byKey {
		if fn, ok := obj.(*types.Func); ok && tests[k] {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && facadeTypes[l.key(namedOf(recv.Type()).Obj())] {
				roots = append(roots, obj)
			}
		}
	}

	implements := map[types.Object][]types.Object{}
	reach := func(roots []types.Object) map[types.Object]bool {
		live := map[types.Object]bool{}
		queue := append([]types.Object{}, roots...)
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			if live[obj] {
				continue
			}
			live[obj] = true
			queue = append(queue, edges[obj]...)
			if tn, ok := obj.(*types.TypeName); ok {
				ms, done := implements[tn]
				if !done {
					ms = implementing(tn, ifaces)
					implements[tn] = ms
				}
				queue = append(queue, ms...)
			}
		}
		return live
	}
	base := reach(roots)
	for k := range keptUnused {
		if obj, ok := byKey[k]; !ok || base[obj] {
			rep.stale = append(rep.stale, k)
		} else {
			roots = append(roots, obj)
		}
	}
	live := reach(roots)
	for k, obj := range byKey {
		if !obj.Exported() || live[obj] || !strings.HasPrefix(k, "internal/") {
			continue
		}
		rep.unused = append(rep.unused, struct{ key, pos string }{k, l.fset.Position(obj.Pos()).String()})
	}
	sort.Strings(rep.unusedFacade)
	sort.Strings(rep.stale)
	sort.Slice(rep.unused, func(i, j int) bool { return rep.unused[i].key < rep.unused[j].key })
	return rep
}

// standardInterfaces are the interfaces whose methods are called by
// name from outside the module (fmt, errors, sort, encoding/json).
func (l *moduleLoader) standardInterfaces(t *testing.T) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "sort.Interface", "encoding/json.Marshaler"} {
		i := strings.LastIndex(name, ".")
		pkg, err := l.std.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkg.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Interface))
	}
	return out
}

// implementing returns the methods, promoted ones included, through
// which tn implements one of ifaces.
func implementing(tn *types.TypeName, ifaces []*types.Interface) []types.Object {
	n, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || n.TypeParams().Len() > 0 || types.IsInterface(n) {
		return nil
	}
	ptr := types.NewPointer(n)
	var out []types.Object
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
				out = append(out, origin(obj))
			}
		}
	}
	return out
}
