package schemble

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag and flag.FlagSet methods that register a flag,
// by the index of the argument holding its name.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

// registeredFlags parses every Go file under dir and returns the names of
// the flags they register.
func registeredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := flagDefiners[sel.Sel.Name]
			if !ok || i >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// readmeFlagRow matches a README table row that opens with a flag, as in
// "| `-cache-size 1024` | ...", and captures the flag's name.
var readmeFlagRow = regexp.MustCompile("(?m)^\\| `-([A-Za-z0-9][A-Za-z0-9-]*)")

// TestReadmeFlagsAreRegistered: every flag a README table documents is
// registered by a binary under cmd/, so a flag table cannot outlive the
// flag it describes.
func TestReadmeFlagsAreRegistered(t *testing.T) {
	registered := registeredFlags(t, "cmd")
	if !registered["addr"] || !registered["adapt"] {
		t.Fatalf("found %d flag registrations under cmd/, missing schemble-server's -addr or -adapt", len(registered))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := readmeFlagRow.FindAllSubmatch(readme, -1)
	if len(rows) == 0 {
		t.Fatal("README.md has no flag table rows")
	}
	for _, row := range rows {
		if name := string(row[1]); !registered[name] {
			t.Errorf("README.md documents -%s, which no binary under cmd/ registers", name)
		}
	}
}

// rigRun matches one go test command of make rig's recipe, its lines
// joined: the -run pattern and the package it runs in.
var rigRun = regexp.MustCompile(`-run '([^']+)'\s+(\./\S+)`)

// TestRigPatternsNameTests: every alternative of a -run pattern in make
// rig names at least one test of its package, so a renamed test cannot
// drop out of the rig's repeated passes unnoticed.
func TestRigPatternsNameTests(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(makefile), "\\\n", " ")
	start := strings.Index(text, "\nrig:")
	if start < 0 {
		t.Fatal("the Makefile has no rig target")
	}
	recipe, _, _ := strings.Cut(text[start+1:], "\n\n")
	runs := rigRun.FindAllStringSubmatch(recipe, -1)
	if len(runs) == 0 {
		t.Fatal("make rig runs no -run pattern")
	}
	for _, run := range runs {
		names := testNames(t, run[2])
		for _, alt := range alternatives(run[1]) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("make rig: -run alternative %q: %v", alt, err)
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("make rig: -run alternative %q names no test of %s", alt, run[2])
			}
		}
	}
}

// testNames returns the names of the Test functions in dir's test files.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// alternatives expands a -run pattern's alternations, those inside groups
// included, into the plain patterns it is the union of: "A(b|c)|D" is
// "Ab", "Ac" and "D".
func alternatives(pattern string) []string {
	var out []string
	depth, from := 0, 0
	for i, c := range pattern + "|" {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			out = append(out, expandGroups(pattern[from:i])...)
			from = i + 1
		}
	}
	return out
}

// expandGroups expands the groups of one alternative.
func expandGroups(branch string) []string {
	open := strings.IndexByte(branch, '(')
	if open < 0 {
		return []string{branch}
	}
	depth := 0
	for i := open; i < len(branch); i++ {
		switch branch[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				var out []string
				for _, in := range alternatives(branch[open+1 : i]) {
					for _, rest := range expandGroups(branch[i+1:]) {
						out = append(out, branch[:open]+in+rest)
					}
				}
				return out
			}
		}
	}
	return []string{branch} // unbalanced: regexp.Compile reports it
}

// instrumentFamilies parses internal/httpserve's instruments table and
// returns the metric family names it declares.
func instrumentFamilies(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "httpserve", "metrics.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "instruments" {
			return true
		}
		ast.Inspect(spec, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil && familyName.MatchString(name) {
					names[name] = true
				}
			}
			return true
		})
		return false
	})
	return names
}

// familyName matches a whole metric family name as the docs write one.
var familyName = regexp.MustCompile(`^schemble_[a-z_]+$`)

// TestDocsFamiliesAreInstruments: every schemble_ metric family README.md
// or DESIGN.md names is a row of the instruments table, so the docs cannot
// name a series the server does not export.
func TestDocsFamiliesAreInstruments(t *testing.T) {
	families := instrumentFamilies(t)
	if !families["schemble_requests_total"] || !families["schemble_model_backlog_seconds"] {
		t.Fatalf("found %d families in the instruments table, missing schemble_requests_total or schemble_model_backlog_seconds", len(families))
	}
	mention := regexp.MustCompile(`schemble_[a-z_]+`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range mention.FindAllString(string(text), -1) {
			if !families[name] {
				t.Errorf("%s names %s, which is not a row of internal/httpserve's instruments table", doc, name)
			}
		}
	}
}
