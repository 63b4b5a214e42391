// Package-doc, dead-surface, layering, flag and HTTP lint: every package
// under internal/ (and cmd/) must carry a substantive package-level doc
// comment, because the layering of this codebase is documented in godoc,
// not in a separate architecture file that would drift; every exported
// declaration under internal/ must have a non-test user, and every field
// a non-test reader; every internal import must point down DESIGN.md's
// rank table; every command-line flag must be set by a test of its
// command; every option field must be set by some non-test code; only
// internal/httpx writes HTTP responses' status and error body; no
// product float fuses into an FMA on arm64; and every byte-identity
// digest lives in testdata/pins.json. The surface lints read one
// type-check of the module. Run via `go test .` — CI's lint job runs it.
package mmlpt

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// minDocLen is the floor for a package comment: long enough that "does
// stuff" cannot pass, short enough not to demand an essay of genuinely
// small packages.
const minDocLen = 120

func TestEveryInternalPackageHasDoc(t *testing.T) {
	t.Parallel()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	names, docs := map[string]string{}, map[string]string{} // by directory; a package's longest file doc
	for _, mf := range m.files {
		if dir := strings.TrimPrefix(mf.pkg, "mmlpt/"); strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			names[dir] = mf.f.Name.Name
			if doc := mf.f.Doc.Text(); len(doc) > len(docs[dir]) {
				docs[dir] = doc
			}
		}
	}
	for dir, name := range names {
		doc := docs[dir]
		if doc == "" {
			t.Errorf("package %s (%s) has no package-level doc comment; state what it does and where it sits in the layering", name, dir)
			continue
		}
		wantPrefix := "Package " + name + " "
		if name == "main" {
			wantPrefix = "Command "
		}
		if !strings.HasPrefix(doc, wantPrefix) {
			t.Errorf("package %s (%s): doc comment must start with %q, got %q", name, dir, wantPrefix, firstLine(doc))
		}
		if len(doc) < minDocLen {
			t.Errorf("package %s (%s): doc comment is %d chars, want at least %d — say what the package does AND its layering role", name, dir, len(doc), minDocLen)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// deadSurfaceAllowlist names the exported declarations under internal/
// that no non-test file uses and that stay anyway, each with the reason.
// Keep it short: the default for an unused declaration is to delete it,
// or to move it into its package's _test.go when only tests use it.
var deadSurfaceAllowlist = map[string]string{
	"fakeroute.Network.RouterOf":  "ground-truth interface-to-router oracle that the tests of alias and fakeroute read and configure routers through",
	"fakeroute.LBPerFlow":         "the zero value of LBMode: every path defaults to it, so no code has to name it, but the other modes are defined against it",
	"pin.Check":                   "the one comparison of bytes against a byte-identity pin; only tests pin outputs",
	"prior.FromGraph":             "test fixture shared by the flow-order pins and the MDA-Lite's prior-seed tests; it must call the unexported normalize",
	"probe.transportError.Unwrap": "errors.Is and errors.As call it through an interface the errors package declares inline",
	"stats.CDF.Min":               "the lower extreme beside Max, which the tests of stats and survey check a CDF's range by",
	"topo.Equal":                  "graph-equality oracle shared by the tests of traceio, fakeroute and groundtruth",
	"topo.Graph.Lookup":           "the address scan FuzzParseTopology holds the topology reader's own index to",
}

// libraryInterfaces are the standard interfaces whose methods fmt,
// errors and encoding/json call, not a selector in the module.
var libraryInterfaces = [][2]string{{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"}, {"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}}

// module is the module's non-test code, parsed and type-checked for the
// GOOS and GOARCH under test: every package under the root, bench/,
// cmd/, examples/ and the root package included.
type module struct {
	fset  *token.FileSet
	files []moduleFile
	pkgs  map[string]*types.Package // by import path
	info  *types.Info
	std   types.Importer // the standard library; not safe for concurrent use
}

// moduleFile is one non-test file and its package's import path.
type moduleFile struct {
	pkg string
	f   *ast.File
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule type-checks the module once per test binary. The standard
// library comes from the compiler's export data, which cmd/go builds and
// caches: checking it from source too would cost seconds, and several
// times that under -race.
var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("mmlpt/"+filepath.ToSlash(dir), "/")
		m.files = append(m.files, moduleFile{pkg, f})
		ok, err := build.Default.MatchFile(dir, name)
		if ok {
			files[pkg] = append(files[pkg], f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	conf := types.Config{Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if files[path] == nil {
			return m.std.Import(path)
		}
		if p := m.pkgs[path]; p != nil {
			return p, nil
		}
		p, err := conf.Check(path, m.fset, files[path], m.info)
		m.pkgs[path] = p
		return p, err
	})
	for path := range files {
		if _, err := conf.Importer.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
})

// TestNoDeadExportedSurface: every exported top-level func, type, var and
// const and every exported method of a type or an interface, declared in
// a non-test file under internal/, is used by a non-test file of the
// module (internal/, cmd/, examples/, the root package or bench/) outside
// its own declaration and its methods' receivers, or is named in
// deadSurfaceAllowlist. A use is the object the type checker resolves an
// identifier to, so no field and no other type's method of the same name
// keeps a method alive. A method is also live when it implements an
// interface method that the module calls, or one of libraryInterfaces.
func TestNoDeadExportedSurface(t *testing.T) {
	t.Parallel()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	spans := map[types.Object]ast.Node{} // each declaration's own span
	receivers := map[*ast.Ident]bool{}
	for _, mf := range m.files {
		if !strings.HasPrefix(mf.pkg, "mmlpt/internal/") {
			continue
		}
		ast.Inspect(mf.f, func(n ast.Node) bool {
			var ids []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				ids = []*ast.Ident{n.Name}
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				ids = []*ast.Ident{n.Name}
			case *ast.ValueSpec:
				ids = n.Names
			case *ast.Field: // only an interface method's is a *types.Func
				ids = n.Names
			}
			for _, id := range ids {
				obj := m.info.Defs[id] // nil in a file built only elsewhere
				if obj == nil || !id.IsExported() {
					continue
				}
				if recv := recvOf(obj); recv != nil && namedOf(recv.Type()) == nil {
					continue // a method of an interface literal
				}
				if _, fn := obj.(*types.Func); fn || obj.Parent() == obj.Pkg().Scope() {
					spans[obj] = n
				}
			}
			return true
		})
	}
	used := map[types.Object]bool{}
	var called []*types.Func // interface methods something calls
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // the declaration of a generic type's method
		}
		if d, ok := spans[obj]; receivers[id] || ok && id.Pos() >= d.Pos() && id.Pos() < d.End() {
			continue
		}
		if recv := recvOf(obj); recv != nil && types.IsInterface(recv.Type()) && !used[obj] {
			called = append(called, obj.(*types.Func))
		}
		used[obj] = true
	}
	for _, li := range libraryInterfaces {
		scope := types.Universe
		if li[0] != "" {
			p, err := m.std.Import(li[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(li[1]).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			called = append(called, iface.Method(i))
		}
	}
	live := func(obj types.Object) bool {
		recv := recvOf(obj)
		if used[obj] || recv == nil || types.IsInterface(recv.Type()) {
			return used[obj]
		}
		ptr := types.NewPointer(namedOf(recv.Type()))
		return slices.ContainsFunc(called, func(c *types.Func) bool {
			return c.Name() == obj.Name() && types.Implements(ptr, recvOf(c).Type().Underlying().(*types.Interface))
		})
	}
	decls, dead := map[string]token.Position{}, map[string]bool{}
	for obj := range spans {
		name := obj.Pkg().Name() + "." + obj.Name()
		if recv := recvOf(obj); recv != nil {
			name = obj.Pkg().Name() + "." + namedOf(recv.Type()).Obj().Name() + "." + obj.Name()
		}
		decls[name], dead[name] = m.fset.Position(obj.Pos()), !live(obj)
	}
	reconcile(t, "deadSurfaceAllowlist", deadSurfaceAllowlist, decls, dead,
		"is exported but no non-test file uses it: delete it, move it into a _test.go file")
}

// reconcile holds a lint's findings to its allowlist. decls gives the
// position of every declaration the lint checked, by name, and failed
// the names it finds; fix says what to do about one. A finding the list
// does not name fails, and so does a listed name that is no finding or
// no declaration.
func reconcile(t *testing.T, listName string, list map[string]string, decls map[string]token.Position, failed map[string]bool, fix string) {
	t.Helper()
	if len(decls) == 0 {
		t.Fatal("the lint checked nothing; it would be vacuous")
	}
	names := make([]string, 0, len(decls))
	for name := range decls {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		switch _, listed := list[name]; {
		case failed[name] && !listed:
			t.Errorf("%s (%s) %s, or add it to %s with a reason", name, decls[name], fix, listName)
		case !failed[name] && listed:
			t.Errorf("%s passes now; drop it from %s", name, listName)
		}
	}
	for name := range list {
		if _, ok := decls[name]; !ok {
			t.Errorf("%s names %s, which this lint does not check", listName, name)
		}
	}
}

// recvOf returns obj's receiver when obj is a method, else nil.
func recvOf(obj types.Object) *types.Var {
	if sig, ok := obj.Type().(*types.Signature); ok {
		return sig.Recv()
	}
	return nil
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// onlyImports narrows a package's internal imports below what its rank
// allows: the tracer runs over any probe.Prober, so it must not reach the
// simulator (fakeroute, rank 2) directly.
var onlyImports = map[string][]string{
	"mda": {"nprand", "obs", "packet", "probe", "topo"},
}

// rankRow matches one row of DESIGN.md's import-rank table.
var rankRow = regexp.MustCompile("^\\| (\\d+) \\| (`[a-z/]+`(?:, `[a-z/]+`)*) \\|$")

// TestImportLayering: every internal import of a non-test file under
// internal/ goes to a package of strictly lower rank in DESIGN.md's
// Layering table, every package under internal/ has a rank, and every
// ranked package exists.
func TestImportLayering(t *testing.T) {
	t.Parallel()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for _, line := range strings.Split(string(design), "\n") {
		row := rankRow.FindStringSubmatch(line)
		if row == nil {
			continue
		}
		r, _ := strconv.Atoi(row[1])
		for _, name := range strings.Split(row[2], ", ") {
			rank[strings.Trim(name, "`")] = r
		}
	}
	if len(rank) == 0 {
		t.Fatal("DESIGN.md has no import-rank table")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "mmlpt/internal/"
	seen := map[string]bool{}
	for _, mf := range m.files {
		pkg, ok := strings.CutPrefix(mf.pkg, prefix)
		if !ok {
			continue
		}
		seen[pkg] = true
		r, ok := rank[pkg]
		if !ok {
			t.Errorf("internal/%s has no rank in DESIGN.md's Layering table; place it above everything it imports", pkg)
			continue
		}
		path := m.fset.Position(mf.f.Package).Filename
		for _, imp := range mf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dep, internal := strings.CutPrefix(p, prefix)
			if !internal {
				continue
			}
			if only, ok := onlyImports[pkg]; ok && !slices.Contains(only, dep) {
				t.Errorf("%s imports %s; %s may import only %v", path, p, pkg, only)
			}
			if dr, ok := rank[dep]; ok && dr >= r {
				t.Errorf("%s (rank %d) imports %s (rank %d): imports must go to a strictly lower rank", path, r, p, dr)
			}
		}
	}
	for pkg := range rank {
		if !seen[pkg] {
			t.Errorf("DESIGN.md ranks %s, which has no non-test Go file under internal/", pkg)
		}
	}
}

// flagNameArg gives, for each flag.FlagSet method that declares a flag,
// the index of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0,
	"String": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"Float64Var": 1, "StringVar": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// declaredFlags returns the names of the flags that calls inside n
// declare, in source order.
func declaredFlags(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		i, ok := flagNameArg[sel.Sel.Name]
		if !ok || len(call.Args) <= i {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			names = append(names, name)
		}
		return true
	})
	return names
}

// TestEveryFlagIsTested: every flag a command declares, on its own
// FlagSet or through dispatch.SpecFlags, appears as the string literal
// "-name" in that command's _test.go files, so no flag stays that no
// test sets.
func TestEveryFlagIsTested(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var specFlags []string
	for _, d := range parse(filepath.Join("internal", "dispatch", "dispatch.go")).Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "SpecFlags" {
			specFlags = declaredFlags(fn)
		}
	}
	if len(specFlags) == 0 {
		t.Fatal("dispatch.SpecFlags declares no flag this test recognizes")
	}
	bins, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range bins {
		paths, err := filepath.Glob(filepath.Join("cmd", bin.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var flags []string
		literals := map[string]bool{}
		for _, path := range paths {
			f := parse(path)
			if !strings.HasSuffix(path, "_test.go") {
				flags = append(flags, declaredFlags(f)...)
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SpecFlags" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "dispatch" {
							flags = append(flags, specFlags...)
						}
					}
					return true
				})
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					literals[s] = true
				}
				return true
			})
		}
		if len(flags) == 0 {
			t.Errorf("cmd/%s declares no flag this test recognizes", bin.Name())
		}
		for _, name := range flags {
			if !literals["-"+name] {
				t.Errorf("cmd/%s declares -%s, but no test of cmd/%s sets it: test it or delete it", bin.Name(), name, bin.Name())
			}
		}
	}
}

// fieldWrite is one write of a struct field: the writing package's import
// path, and whether the write is a key in a composite literal.
type fieldWrite struct {
	pkg     string
	literal bool
}

// fieldUses classifies every use a non-test file makes of a struct field:
// a key F: in a composite literal, the left side of an assignment (+=
// included) and x.F++ write F; taking &x.F writes and reads it; any other
// use reads it. writers lists each field's writes, read holds the fields
// some use reads.
func (m *module) fieldUses() (writers map[*types.Var][]fieldWrite, read map[*types.Var]bool) {
	writers, read = map[*types.Var][]fieldWrite{}, map[*types.Var]bool{}
	for _, mf := range m.files {
		written := map[ast.Node]bool{} // value: the write also reads
		ast.Inspect(mf.f, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					written[ast.Unparen(l)] = false
				}
			case *ast.IncDecStmt:
				written[ast.Unparen(n.X)] = false
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written[ast.Unparen(n.X)] = true
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					written[key] = false
				}
			case *ast.SelectorExpr:
				id = n.Sel
			case *ast.Ident:
				if _, ok := written[n]; ok {
					id = n
				}
			}
			f, ok := m.info.Uses[id].(*types.Var)
			if id == nil || !ok || !f.IsField() {
				return true
			}
			f = f.Origin()
			alsoRead, isWrite := written[n]
			if isWrite {
				writers[f] = append(writers[f], fieldWrite{mf.pkg, n == id})
			}
			read[f] = read[f] || !isWrite || alsoRead
			return true
		})
	}
	return writers, read
}

// structFields calls fn with every exported field of every exported
// struct type that a non-test file of package path declares, and the
// type's name.
func (m *module) structFields(path string, fn func(typ string, f *types.Var, tag string)) {
	scope := m.pkgs[path].Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fn(name, f, st.Tag(i))
				}
			}
		}
	}
}

// optionAllowlist names the option fields TestEveryOptionIsSet finds no
// writer for that stay anyway, each with the reason.
var optionAllowlist = map[string]string{
	"mmlpt.Options.MaxTTL":         "public library API",
	"mmlpt.Options.Rounds":         "public library API",
	"mmlpt.Options.ProbesPerRound": "public library API",
}

// TestEveryOptionIsSet: every exported field of an exported struct type
// named *Config or *Options, declared in a non-test file outside bench/,
// is set by a non-test file of the module, bench/ included: a key F: in
// a composite literal, or a write (see fieldUses) from another package.
// Selector writes inside the declaring package do not count, since that
// is where defaults are filled. A field nobody sets becomes a
// constant or an unexported test seam, or sits in optionAllowlist with
// its reason. *Spec types are data and wire types, out of scope.
func TestEveryOptionIsSet(t *testing.T) {
	t.Parallel()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	writers, _ := m.fieldUses()
	decls, unset := map[string]token.Position{}, map[string]bool{}
	for path := range m.pkgs {
		if path == "mmlpt/bench" {
			continue
		}
		m.structFields(path, func(typ string, f *types.Var, _ string) {
			if strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Options") {
				name := f.Pkg().Name() + "." + typ + "." + f.Name()
				decls[name] = m.fset.Position(f.Pos())
				unset[name] = !slices.ContainsFunc(writers[f], func(w fieldWrite) bool { return w.literal || w.pkg != path })
			}
		})
	}
	reconcile(t, "optionAllowlist", optionAllowlist, decls, unset,
		"is an option no non-test code sets: make it a constant or an unexported test seam")
}

// writeOnlyAllowlist names the fields TestNoWriteOnlyFields finds written
// and never read that stay anyway, each with the reason.
var writeOnlyAllowlist = map[string]string{
	"mda.Result.EdgeCompletionTruncated": "the MDA-Lite's edge-completion cap, which lite_prior_test holds to 0 on a stable topology",
	"packet.Reply.HasQuotedFlow":         "with ProbeFlowID, what the probe and fakeroute tests check a batch's replies against its specs by",
	"packet.Reply.ProbeFlowID":           "the quoted probe's flow, which the probe and fakeroute tests check a batch's replies against its specs by",
	"serve.Options.CacheShards":          "ignored since the line index; the repository benchmark still sets it, and ROADMAP 24a removes it",
}

// TestNoWriteOnlyFields: no exported field of an exported struct type
// declared under internal/ is written by non-test code and never read by
// it (see fieldUses: a compound assignment or an increment is a write
// only). A value computed for every trace and never looked at is work
// and surface for nothing: the field goes, or a test that wants it
// computes it itself. A field with a json tag is read by encoding/json,
// and a field of a type used as a map key by the key's comparison, so
// both are exempt.
func TestNoWriteOnlyFields(t *testing.T) {
	t.Parallel()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	writers, read := m.fieldUses()
	keys := map[types.Type]bool{}
	for _, tv := range m.info.Types {
		if mt, ok := tv.Type.(*types.Map); ok {
			keys[mt.Key()] = true
		}
	}
	decls, writeOnly := map[string]token.Position{}, map[string]bool{}
	for path, p := range m.pkgs {
		if !strings.HasPrefix(path, "mmlpt/internal/") {
			continue
		}
		m.structFields(path, func(typ string, f *types.Var, tag string) {
			if !keys[p.Scope().Lookup(typ).Type()] && !strings.Contains(tag, `json:"`) {
				name := p.Name() + "." + typ + "." + f.Name()
				decls[name], writeOnly[name] = m.fset.Position(f.Pos()), len(writers[f]) > 0 && !read[f]
			}
		})
	}
	reconcile(t, "writeOnlyAllowlist", writeOnlyAllowlist, decls, writeOnly,
		"is written by non-test code and never read by it: delete it or compute it in the test that wants it")
}

// TestOneHTTPConvention: the JSON-over-HTTP convention lives in
// internal/httpx alone. No other non-test file outside bench/ calls
// WriteHeader or declares a field tagged `json:"error"`, so no handler
// can answer with a status or an error body of its own; and none calls
// Handle or HandleFunc or reads URL.Path, so every route is an
// httpx.Route method pattern, whose 404 and 405 are JSON by
// construction, and reads its path through r.PathValue.
func TestOneHTTPConvention(t *testing.T) {
	t.Parallel()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, sf := range m.files {
		if sf.pkg == "mmlpt/internal/httpx" || sf.pkg == "mmlpt/bench" {
			continue
		}
		checked++
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				switch {
				case !ok:
				case sel.Sel.Name == "WriteHeader":
					t.Errorf("%s calls WriteHeader: answer through httpx.WriteJSON or httpx.Errorf", m.fset.Position(n.Pos()))
				case sel.Sel.Name == "Handle" || sel.Sel.Name == "HandleFunc":
					t.Errorf("%s calls %s: register the route with httpx.Route", m.fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.SelectorExpr); ok && x.Sel.Name == "URL" && n.Sel.Name == "Path" {
					t.Errorf("%s reads URL.Path: match it with an httpx.Route pattern and read r.PathValue", m.fset.Position(n.Pos()))
				}
			case *ast.Field:
				if n.Tag == nil {
					return true
				}
				tag, _ := strconv.Unquote(n.Tag.Value)
				if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name == "error" {
					t.Errorf("%s declares a json \"error\" field: use httpx.ErrorBody", m.fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no file checked; the guard would be vacuous")
	}
}

// fusionSite names a fused multiply-add by its file and the source text
// of its line.
type fusionSite struct{ file, line, reason string }

// fusionAllowlist holds the fused multiply-adds that may stay, each with
// the reason no output byte can depend on the fusion.
var fusionAllowlist = []fusionSite{
	{"internal/survey/gen.go", "w := 4 / (1 + rank/8)",
		"rank/8 is an exact ×0.125, so the product rounds to itself and the fused sum is the unfused one"},
	{"internal/survey/gen.go", "r.Velocity = 0.05 + rng.Float64()*0.5",
		"×0.5 is exact, so the product rounds to itself and the fused sum is the unfused one"},
	{"internal/dispatch/budget.go", "bk.tokens = math.Min(b.burst, bk.tokens+dt*b.rate)",
		"wall-clock pacing of the fleet's probe budget: it decides when a runner probes, never what a record holds"},
}

// fmaLine matches a fused multiply-add in the compiler's -S listing and
// captures its source position.
var fmaLine = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)

// TestNoFusedMultiplyAdd: the Go spec lets a compiler fuse x*y + z into
// one FMA instruction with a single rounding, and on arm64 it does, so a
// float computed on a deterministic path could differ in its last bit
// between an amd64 and an arm64 runner. An explicit float64(…) around
// the product forbids the fusion. This lint compiles the facade and
// internal/ for arm64 — every computation lives there; cmd/ only parses
// flags and prints, and linking its binaries would cost seconds — and
// fails on any fused instruction fusionAllowlist does not name. cmd/go
// replays cached compiler output, so a warm run takes about a second.
func TestNoFusedMultiplyAdd(t *testing.T) {
	t.Parallel()
	cmd := exec.Command("go", "build", "-gcflags=-S", ".", "./internal/...")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, out)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "STEXT") {
		t.Fatal("the build printed no assembly; the lint would be vacuous")
	}
	used := make([]bool, len(fusionAllowlist))
	for _, m := range fmaLine.FindAllStringSubmatch(string(out), -1) {
		file, err := filepath.Rel(root, m[1])
		if err != nil {
			t.Fatal(err)
		}
		file = filepath.ToSlash(file)
		n, _ := strconv.Atoi(m[2])
		src, err := os.ReadFile(m[1])
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		text := ""
		if n >= 1 && n <= len(lines) {
			text = strings.TrimSpace(lines[n-1])
		}
		i := slices.IndexFunc(fusionAllowlist, func(a fusionSite) bool {
			return a.file == file && strings.Contains(text, a.line)
		})
		if i < 0 {
			t.Errorf("%s:%d compiles to %s on arm64: wrap the product in float64(…) or allowlist it with a reason\n\t%s", file, n, m[3], text)
			continue
		}
		used[i] = true
	}
	for i, a := range fusionAllowlist {
		if !used[i] {
			t.Errorf("fusionAllowlist names %s: %q, which no longer fuses: drop it", a.file, a.line)
		}
	}
}

// hex64 matches a SHA-256 digest written out in hex.
var hex64 = regexp.MustCompile(`\b[0-9a-f]{64}\b`)

// TestPinsLiveInTheRegistry: a byte-identity digest is written in
// testdata/pins.json alone, where tests read it through pin.Check and
// CI through jq. No Go file and no workflow holds a 64-hex literal, and
// every registry entry names a test that exists: a function its package
// directory's _test.go files declare, or, for a pin a workflow reads, a
// job of that workflow which names the pin.
func TestPinsLiveInTheRegistry(t *testing.T) {
	t.Parallel()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != ".github" && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Dir(filepath.ToSlash(path)) != ".github/workflows" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range hex64.FindAllIndex(raw, -1) {
			t.Errorf("%s:%d holds a 64-hex literal: pin the bytes in testdata/pins.json and check them with pin.Check",
				path, 1+bytes.Count(raw[:m[0]], []byte("\n")))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile("testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]struct{ Test string }
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	parsed, tests := map[string]bool{}, map[string]bool{} // tests: "dir TestName"
	fset := token.NewFileSet()
	for name, e := range pins {
		dir, test, _ := strings.Cut(e.Test, " ")
		if filepath.Ext(dir) == ".yml" {
			wf, err := os.ReadFile(dir)
			if err != nil {
				t.Errorf("pin %q: %v", name, err)
			} else if !strings.Contains(string(wf), "\n  "+test+":\n") || !strings.Contains(string(wf), `"`+name+`"`) {
				t.Errorf("pin %q: %s has no job %s that names it", name, dir, test)
			}
			continue
		}
		if !parsed[dir] {
			parsed[dir] = true
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.SkipObjectResolution)
			if err != nil {
				t.Errorf("pin %q: %v", name, err)
			}
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, decl := range f.Decls {
						if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
							tests[dir+" "+fn.Name.Name] = true
						}
					}
				}
			}
		}
		if !tests[e.Test] || !strings.HasPrefix(test, "Test") {
			t.Errorf("pin %q names %q, but no _test.go file in %s declares %s", name, e.Test, dir, test)
		}
	}
	if len(pins) == 0 {
		t.Fatal("the registry holds no pin; the lint would be vacuous")
	}
}
