// Package-doc, dead-surface, layering, flag and HTTP lint: every package
// under internal/ (and cmd/) must carry a substantive package-level doc
// comment, because the layering of this codebase is documented in godoc,
// not in a separate architecture file that would drift; every exported
// name under internal/ must have a non-test user; every internal import
// must point down DESIGN.md's rank table; every command-line flag must
// be set by a test of its command; every option field must be set by
// some non-test code; only internal/httpx writes HTTP responses' status
// and error body; and no product float fuses into an FMA on arm64. Run
// via `go test .` — CI's lint job includes it.
package mmlpt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// minDocLen is the floor for a package comment: long enough that "does
// stuff" cannot pass, short enough not to demand an essay of genuinely
// small packages.
const minDocLen = 120

func TestEveryInternalPackageHasDoc(t *testing.T) {
	t.Parallel()
	checkTree(t, "internal")
	checkTree(t, "cmd")
}

func checkTree(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			var doc string
			var files []string
			for path, f := range pkg.Files {
				files = append(files, path)
				if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
					doc = f.Doc.Text()
				}
			}
			if len(files) == 0 {
				continue
			}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// deadSurfaceAllowlist names the exported identifiers under internal/
// that no non-test file references and that stay anyway, each with the
// reason. Keep it short: the default for an unreferenced name is to delete
// it, or to move it into its package's _test.go when only tests use it.
var deadSurfaceAllowlist = map[string]string{
	"fakeroute.Network.RouterOf": "ground-truth interface-to-router oracle that the tests of alias and fakeroute read and configure routers through",
	"fakeroute.LBPerFlow":        "the zero value of LBMode: every path defaults to it, so no code has to name it, but the other modes are defined against it",
	"prior.FromGraph":            "test fixture shared by the flow-order pins and the MDA-Lite's prior-seed tests; it must call the unexported normalize",
	"topo.Equal":                 "graph-equality oracle shared by the tests of traceio, fakeroute and groundtruth",
}

// stdInterfaceMethods are method names that satisfy a standard-library
// interface, so the call that reaches them is made by the library (fmt,
// errors, encoding/json, sort, io, net/http), not by a selector in the
// module.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestNoDeadExportedSurface: every exported top-level func, type, var and
// const and every exported method declared in a non-test file under
// internal/ must be referenced by a non-test file of the module (internal/,
// cmd/, examples/, the root package or bench/) outside its own
// declaration, or be named in deadSurfaceAllowlist. Top-level names match
// as pkg.Name through the referring file's imports, or bare inside their
// own package; methods match by selector name — only by call selector
// (x.M(…)) when a struct field in the module shares the name, since
// reading the field would otherwise count — and a method whose name
// belongs to a module interface or a standard one is exempt.
func TestNoDeadExportedSurface(t *testing.T) {
	t.Parallel()
	ix, err := indexSurface(".", "mmlpt")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range ix.decls {
		declared[d.display] = true
		if d.key.pkg == "" && (stdInterfaceMethods[d.key.name] || ix.ifaceMethods[d.key.name]) {
			continue
		}
		_, allowed := deadSurfaceAllowlist[d.display]
		switch live := ix.referenced(d); {
		case live && allowed:
			t.Errorf("%s is referenced now; drop it from deadSurfaceAllowlist", d.display)
		case !live && !allowed:
			t.Errorf("%s (%s) is exported but no non-test file uses it: delete it, move it into a _test.go file, or allowlist it with a reason",
				d.display, ix.fset.Position(d.pos))
		}
	}
	for name := range deadSurfaceAllowlist {
		if !declared[name] {
			t.Errorf("deadSurfaceAllowlist names %s, which is not declared under internal/", name)
		}
	}
}

// surfaceKey names what a reference can reach: a top-level identifier by
// its package's import path, or a method (pkg "") by its name alone.
type surfaceKey struct{ pkg, name string }

// surfaceDecl is one exported declaration under internal/; references
// inside [pos, end) are the declaration's own and do not count.
type surfaceDecl struct {
	key      surfaceKey
	display  string
	pos, end token.Pos
}

type surfaceIndex struct {
	fset         *token.FileSet
	files        []surfaceFile
	decls        []surfaceDecl
	refs         map[surfaceKey][]token.Pos
	ifaceMethods map[string]bool
	fields       map[string]bool // struct field names
}

// surfaceFile is one parsed non-test file: its package's import path and
// the import paths of the module packages it imports, by local name.
type surfaceFile struct {
	pkg     string
	f       *ast.File
	imports map[string]string
}

// callPkg keys the method references that are call selectors.
const callPkg = "()"

// indexSurface parses every non-test Go file under root (skipping
// testdata and hidden directories) and records the exported declarations
// under internal/ and every reference the files make.
func indexSurface(root, module string) (*surfaceIndex, error) {
	ix := &surfaceIndex{
		fset:         token.NewFileSet(),
		refs:         map[surfaceKey][]token.Pos{},
		ifaceMethods: map[string]bool{},
		fields:       map[string]bool{},
	}
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(ix.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgName[pkg] = f.Name.Name
		ix.files = append(ix.files, surfaceFile{pkg: pkg, f: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range ix.files {
		sf := &ix.files[i]
		if strings.HasPrefix(sf.pkg, module+"/internal/") {
			ix.addDecls(sf.f, sf.pkg)
		}
		sf.imports = map[string]string{}
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := pkgName[p]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				sf.imports[name] = p
			}
		}
		ix.addRefs(sf.f, sf.pkg, sf.imports)
	}
	return ix, nil
}

func (ix *surfaceIndex) addDecls(f *ast.File, pkg string) {
	short := pkg[strings.LastIndexByte(pkg, '/')+1:]
	add := func(k surfaceKey, display string, n ast.Node) {
		ix.decls = append(ix.decls, surfaceDecl{k, short + "." + display, n.Pos(), n.End()})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				add(surfaceKey{pkg, d.Name.Name}, d.Name.Name, d)
			default:
				add(surfaceKey{"", d.Name.Name}, recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(surfaceKey{pkg, s.Name.Name}, s.Name.Name, s)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							add(surfaceKey{pkg, name.Name}, name.Name, s)
						}
					}
				}
			}
		}
	}
}

func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// addRefs records every identifier f uses. pkg is f's import path and
// imports maps f's local names for module packages to their import paths.
func (ix *surfaceIndex) addRefs(f *ast.File, pkg string, imports map[string]string) {
	ref := func(k surfaceKey, p token.Pos) { ix.refs[k] = append(ix.refs[k], p) }
	called := map[*ast.SelectorExpr]bool{}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			// A method's receiver names its own type; that is not a use.
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					ix.ifaceMethods[name.Name] = true
				}
			}
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, name := range f.Names {
					ix.fields[name.Name] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					ref(surfaceKey{p, n.Sel.Name}, n.Sel.Pos())
					return false
				}
			}
			ref(surfaceKey{"", n.Sel.Name}, n.Sel.Pos())
			if called[n] {
				ref(surfaceKey{callPkg, n.Sel.Name}, n.Sel.Pos())
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			ref(surfaceKey{pkg, n.Name}, n.Pos())
		}
		return true
	}
	ast.Inspect(f, visit)
}

// referenced reports whether some reference to d lies outside d itself.
func (ix *surfaceIndex) referenced(d surfaceDecl) bool {
	k := d.key
	if k.pkg == "" && ix.fields[k.name] {
		k.pkg = callPkg
	}
	for _, p := range ix.refs[k] {
		if p < d.pos || p >= d.end {
			return true
		}
	}
	return false
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
		m := rankRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r, _ := strconv.Atoi(m[1])
		for _, name := range strings.Split(m[2], ", ") {
			rank[strings.Trim(name, "`")] = r
		}
	}
	if len(rank) == 0 {
		t.Fatal("DESIGN.md has no import-rank table")
	}
	const prefix = "mmlpt/internal/"
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), "internal"+string(filepath.Separator)))
		seen[pkg] = true
		r, ok := rank[pkg]
		if !ok {
			t.Errorf("internal/%s has no rank in DESIGN.md's Layering table; place it above everything it imports", pkg)
			return nil
		}
		for _, imp := range f.Imports {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// optionAllowlist names the option fields TestEveryOptionIsSet finds no
// writer for that stay anyway, each with the reason.
var optionAllowlist = map[string]string{
	"mmlpt.Options.MaxTTL":         "public library API",
	"mmlpt.Options.Rounds":         "public library API",
	"mmlpt.Options.ProbesPerRound": "public library API",
}

// optionField names one field of an option struct by its package's
// import path, its type and its own name.
type optionField struct{ pkg, typ, name string }

// TestEveryOptionIsSet: every exported field of an exported struct type
// named *Config or *Options, declared in a non-test file outside bench/,
// has a writer in a non-test file of the module, bench/ included: a key
// F: in a composite literal of that type, or a selector write x.F = …,
// &x.F or x.F++ in a file that imports the declaring package. Writes
// inside the declaring package do not count, since that is where
// defaults are filled. A field nobody sets becomes a constant or an
// unexported test seam, or sits in optionAllowlist with its reason.
// Without types, a selector write matches by field name: it counts for
// every field of that name in every package its file imports. So a dead
// field escapes when it shares its name with a live field written by an
// importer of its package: an experiments.SurveyConfig.Workers would,
// behind cmd/survey's writes of survey.RunConfig.Workers. *Spec types
// are data and wire types, out of scope.
func TestEveryOptionIsSet(t *testing.T) {
	t.Parallel()
	ix, err := indexSurface(".", "mmlpt")
	if err != nil {
		t.Fatal(err)
	}
	var fields []optionField
	where := map[optionField]token.Pos{}
	literal := map[optionField]bool{}
	writerImports := map[string]map[string]bool{} // field name -> packages its writers import
	selectorWrite := func(x ast.Expr, sf surfaceFile) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if writerImports[sel.Sel.Name] == nil {
				writerImports[sel.Sel.Name] = map[string]bool{}
			}
			for _, p := range sf.imports {
				writerImports[sel.Sel.Name][p] = true
			}
		}
	}
	for _, sf := range ix.files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !n.Name.IsExported() || sf.pkg == "mmlpt/bench" ||
					!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							f := optionField{sf.pkg, name, id.Name}
							fields = append(fields, f)
							where[f] = id.Pos()
						}
					}
				}
			case *ast.CompositeLit:
				var pkg, typ string
				switch lt := n.Type.(type) {
				case *ast.Ident:
					pkg, typ = sf.pkg, lt.Name
				case *ast.SelectorExpr:
					if x, ok := lt.X.(*ast.Ident); ok {
						pkg, typ = sf.imports[x.Name], lt.Sel.Name
					}
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && typ != "" {
							literal[optionField{pkg, typ, key.Name}] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					selectorWrite(l, sf)
				}
			case *ast.IncDecStmt:
				selectorWrite(n.X, sf)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selectorWrite(n.X, sf)
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		t.Fatal("no option struct found; the guard would be vacuous")
	}
	declared := map[string]bool{}
	for _, f := range fields {
		display := f.pkg[strings.LastIndexByte(f.pkg, '/')+1:] + "." + f.typ + "." + f.name
		declared[display] = true
		set := literal[f] || writerImports[f.name][f.pkg]
		_, allowed := optionAllowlist[display]
		switch {
		case set && allowed:
			t.Errorf("%s has a writer now; drop it from optionAllowlist", display)
		case !set && !allowed:
			t.Errorf("%s (%s) is an option no non-test code sets: make it a constant or an unexported test seam, or allowlist it with a reason",
				display, ix.fset.Position(where[f]))
		}
	}
	for name := range optionAllowlist {
		if !declared[name] {
			t.Errorf("optionAllowlist names %s, which is not an option field", name)
		}
	}
}

// TestOneHTTPConvention: the JSON-over-HTTP convention lives in
// internal/httpx alone. No other non-test file outside bench/ calls
// WriteHeader or declares a field tagged `json:"error"`, so no handler
// can answer with a status or an error body of its own.
func TestOneHTTPConvention(t *testing.T) {
	t.Parallel()
	ix, err := indexSurface(".", "mmlpt")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, sf := range ix.files {
		if sf.pkg == "mmlpt/internal/httpx" || sf.pkg == "mmlpt/bench" {
			continue
		}
		checked++
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "WriteHeader" {
					t.Errorf("%s calls WriteHeader: answer through httpx.WriteJSON or httpx.Errorf", ix.fset.Position(n.Pos()))
				}
			case *ast.Field:
				if n.Tag == nil {
					return true
				}
				tag, _ := strconv.Unquote(n.Tag.Value)
				if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name == "error" {
					t.Errorf("%s declares a json \"error\" field: use httpx.ErrorBody", ix.fset.Position(n.Pos()))
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
