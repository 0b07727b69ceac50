// Package doccheck keeps the prose honest about the code: it fails when
// DESIGN.md, README.md or EXPERIMENTS.md cites, in backticks, a Go name,
// a repository path or a pandas-sim experiment that no longer exists.
// The package has no non-test code.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pandas/internal/experiments"
)

// root is the module root, two levels above this package.
const root = "../.."

// docs are the documents whose citations are checked.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// index holds every name the module declares, test files included (the
// documents cite benchmarks and reference implementations too).
type index struct {
	// pkgs maps a package name to its top-level identifiers.
	pkgs map[string]map[string]bool
	// types maps a type name to its declarations, keyed "pkg.Type", and
	// members maps those keys to their fields and methods.
	types   map[string][]string
	members map[string]map[string]bool
	// embeds maps a type key to the names of the types it embeds.
	embeds map[string][]string
}

// load parses every Go file under root but the separate bench module,
// testdata and hidden directories.
func load(t *testing.T) *index {
	t.Helper()
	ix := &index{
		pkgs:    map[string]map[string]bool{},
		types:   map[string][]string{},
		members: map[string]map[string]bool{},
		embeds:  map[string][]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.add(strings.TrimSuffix(f.Name.Name, "_test"), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *index) decl(pkg, name string) {
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
	}
	ix.pkgs[pkg][name] = true
}

func (ix *index) member(key, name string) {
	if ix.members[key] == nil {
		ix.members[key] = map[string]bool{}
	}
	ix.members[key][name] = true
}

// add records a file's top-level declarations, struct fields, interface
// methods and methods.
func (ix *index) add(pkg string, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.decl(pkg, d.Name.Name)
				continue
			}
			ix.member(pkg+"."+typeName(d.Recv.List[0].Type), d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.decl(pkg, n.Name)
					}
				case *ast.TypeSpec:
					ix.decl(pkg, s.Name.Name)
					key := pkg + "." + s.Name.Name
					ix.types[s.Name.Name] = append(ix.types[s.Name.Name], key)
					ix.addMembers(key, s.Type)
				}
			}
		}
	}
}

// addMembers records a struct's fields or an interface's methods; a type
// defined as another named type (an alias, say) takes that type's.
func (ix *index) addMembers(key string, e ast.Expr) {
	var fields *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		if name := typeName(e); name != "" {
			ix.embeds[key] = append(ix.embeds[key], name)
		}
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			name := typeName(f.Type)
			ix.member(key, name)
			ix.embeds[key] = append(ix.embeds[key], name)
			continue
		}
		for _, n := range f.Names {
			ix.member(key, n.Name)
		}
	}
}

// typeName strips pointers, qualifiers and type arguments off a type
// expression.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// has reports whether names holds name or, for a citation that ends in
// a wildcard (prefix), a name beginning with it.
func has(names map[string]bool, name string, prefix bool) bool {
	if names[name] {
		return true
	}
	for n := range names {
		if prefix && strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// hasMember reports whether a type named typ, in any package, has the
// field or method name, directly or through an embedded type.
func (ix *index) hasMember(typ, name string, prefix bool, seen map[string]bool) bool {
	for _, key := range ix.types[typ] {
		if seen[key] {
			continue
		}
		seen[key] = true
		if has(ix.members[key], name, prefix) {
			return true
		}
		for _, e := range ix.embeds[key] {
			if ix.hasMember(e, name, prefix, seen) {
				return true
			}
		}
	}
	return false
}

// resolve reports whether a cited chain names something, and whether it
// was checked at all: only chains whose first part is a module package
// or type are.
func (ix *index) resolve(parts []string, prefix bool) (checked, ok bool) {
	first, second := parts[0], parts[1]
	if decls, isPkg := ix.pkgs[first]; isPkg && first != "main" {
		if !has(decls, second, prefix && len(parts) == 2) {
			return true, false
		}
		if len(parts) == 2 || len(ix.types[second]) == 0 {
			return true, true // a function or value: its members are not indexed
		}
		return true, ix.hasMember(second, parts[2], prefix && len(parts) == 3, map[string]bool{})
	}
	if len(ix.types[first]) > 0 {
		return true, ix.hasMember(first, second, prefix && len(parts) == 2, map[string]bool{})
	}
	return false, false
}

var (
	// span is one inline code span.
	span = regexp.MustCompile("`([^`\n]+)`")
	// chain is a dotted name at the start of a span, after an optional
	// "*", "&" or "(*" and with an optional trailing wildcard. Bench
	// metric names (wire.codec.cum_share) look alike; their underscores
	// tell them apart.
	chain = regexp.MustCompile(`^(?:\(\*|\*|&)?([A-Za-z]\w*)((?:\)?\.[A-Za-z]\w*)+)(\*?)`)
	// file is a span that names a file, not a Go identifier.
	file = regexp.MustCompile(`^[\w./-]+\.(go|md|json|sh|golden|hex|txt|csv|jsonl|s|mod|out)$`)
)

// citation is one dotted name a document cites.
type citation struct {
	line   int
	parts  []string
	prefix bool
}

// citations returns the dotted names cited in a document, outside
// fenced code blocks.
func citations(text string) []citation {
	var out []citation
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			s := m[1]
			if file.MatchString(s) {
				continue
			}
			c := chain.FindStringSubmatch(s)
			if c == nil || strings.Contains(c[0], "_") {
				continue
			}
			rest := strings.Replace(c[2], ")", "", 1)
			parts := append([]string{c[1]}, strings.Split(rest, ".")[1:]...)
			out = append(out, citation{line: i + 1, parts: parts, prefix: c[3] == "*"})
		}
	}
	return out
}

var (
	// pathSpan is a span that is a repository path, with an optional
	// ./ before it and :line or :from-to after it.
	pathSpan = regexp.MustCompile(`^(?:\./)?((?:examples|cmd|internal)/[\w./-]*?)(?::\d+(?:-\d+)?)?$`)
	// pathArg is a ./path argument of a command.
	pathArg = regexp.MustCompile(`(?:^|\s)\./((?:examples|cmd|internal)/[\w./-]*)`)
	// expArg is a pandas-sim -exp argument; fig15a|fig15b names two.
	expArg = regexp.MustCompile(`-exp\s+([\w|]+)`)
)

// pathsAndExperiments returns the repository paths and the -exp names a
// document cites: an inline span that is a path, and a ./path or an -exp
// argument in an inline span or a fenced block. A command's plain
// operand (`git log -- internal/gateway`) may name what is gone.
func pathsAndExperiments(text string) (paths, exps []string) {
	scan := func(s string, inline bool) {
		if m := pathSpan.FindStringSubmatch(s); inline && m != nil {
			paths = append(paths, m[1])
		} else {
			for _, m := range pathArg.FindAllStringSubmatch(s, -1) {
				paths = append(paths, m[1])
			}
		}
		for _, m := range expArg.FindAllStringSubmatch(s, -1) {
			exps = append(exps, strings.Split(m[1], "|")...)
		}
	}
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			scan(line, false)
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			scan(m[1], true)
		}
	}
	return paths, exps
}

// TestDocPathsAndExperimentsExist fails on every repository path a
// document cites that does not exist and every -exp name pandas-sim does
// not list.
func TestDocPathsAndExperimentsExist(t *testing.T) {
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		paths, exps := pathsAndExperiments(string(text))
		for _, p := range paths {
			p = strings.TrimSuffix(p, "/...")
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				t.Errorf("%s: `%s` is not a path in the repository", doc, p)
			}
		}
		for _, name := range exps {
			if _, ok := experiments.Lookup(name); !ok {
				t.Errorf("%s: `-exp %s` names no pandas-sim experiment", doc, name)
			}
		}
		t.Logf("%s: %d paths, %d experiments checked", doc, len(paths), len(exps))
	}
}

// TestPathsAndExperiments pins which paths and experiments a document is
// read to cite.
func TestPathsAndExperiments(t *testing.T) {
	text := "`examples/faults` and `internal/core/cluster.go:613` and `go run ./cmd/pandas-sim -exp fig15a|fig15b`\n" +
		"`git log -- internal/gateway`, `-exp <id>`, `./internal/...`\n" +
		"```\ngo run ./examples/quickstart -exp all\ncmd/\n```\n"
	paths, exps := pathsAndExperiments(text)
	wantPaths := "examples/faults internal/core/cluster.go cmd/pandas-sim internal/... examples/quickstart"
	if got := strings.Join(paths, " "); got != wantPaths {
		t.Errorf("paths = %q, want %q", got, wantPaths)
	}
	if got := strings.Join(exps, " "); got != "fig15a fig15b all" {
		t.Errorf("experiments = %q, want %q", got, "fig15a fig15b all")
	}
}

// TestDocNamesResolve fails on every backticked pkg.Name, Type.Method or
// Type.Field in the documents whose first part is a module package or
// type and whose name the module does not declare.
func TestDocNamesResolve(t *testing.T) {
	ix := load(t)
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, c := range citations(string(text)) {
			isChecked, ok := ix.resolve(c.parts, c.prefix)
			if !isChecked {
				continue
			}
			checked++
			if !ok {
				t.Errorf("%s:%d: `%s` names nothing in the module", doc, c.line, strings.Join(c.parts, "."))
			}
		}
		t.Logf("%s: %d citations checked", doc, checked)
	}
}

// TestCitations pins how a span is read.
func TestCitations(t *testing.T) {
	text := "`core.NewCluster(cc)` and `(*core.Node).Outcome` and `NodeView.FetchMsgs*`\n" +
		"```\n`fenced.Name`\n```\n`host.go`, `-exp churn`, `wire.codec.cum_share`, `Config.Deadline`"
	var got []string
	for _, c := range citations(text) {
		s := strings.Join(c.parts, ".")
		if c.prefix {
			s += "*"
		}
		got = append(got, s)
	}
	want := []string{"core.NewCluster", "core.Node.Outcome", "NodeView.FetchMsgs*", "Config.Deadline"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("citations = %v, want %v", got, want)
	}
}

// TestResolve pins what a citation must name to pass, and which ones are
// not checked.
func TestResolve(t *testing.T) {
	ix := load(t)
	for _, c := range []struct {
		cite          string
		prefix        bool
		checked, want bool
	}{
		{"core.NewCluster", false, true, true},
		{"core.Builder.SetWithholding", false, true, true},
		{"Builder.SetWithholding", false, true, true},
		{"NodeView.FetchMsgs", true, true, true}, // a wildcard
		{"Config.Deadline", false, true, true},
		{"core.NoSuchName", false, true, false},
		{"Builder.NoSuchMethod", false, true, false},
		{"core.Builder.NoSuchMethod", false, true, false},
		{"res.Sample", false, false, false},
	} {
		checked, ok := ix.resolve(strings.Split(c.cite, "."), c.prefix)
		if checked != c.checked || ok != c.want {
			t.Errorf("%s: checked %v, resolves %v; want %v, %v", c.cite, checked, ok, c.checked, c.want)
		}
	}
}
