// Package enginepure mechanizes the engine-agnostic contract that
// internal/qos and internal/rcache established by convention: a package
// shared verbatim by the concurrent serving runtime (internal/serve)
// and the discrete-event simulator (internal/sim) must be a pure state
// machine over the caller's virtual clock. Concretely, inside a package
// on the declared list there may be no goroutine launches, no channel
// operations, no wall-clock or timer reads, no global randomness, and
// no package-level mutable state — any of those would let one engine's
// scheduling or wall time leak into shared decisions and break the
// bit-identical sim<->serve equivalence the paper's reproduction rests
// on. Mutexes are explicitly allowed: they serialize, they do not
// decide.
package enginepure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"schemble/internal/analysis"
)

// Packages is the declared list of engine-agnostic packages. Growing the
// shared core (the ROADMAP's cluster tier and online adaptation will
// both add engine-agnostic policy code) means adding the new package
// here, not copying the contract into a comment.
var Packages = map[string]bool{
	"schemble/internal/qos":     true,
	"schemble/internal/rcache":  true,
	"schemble/internal/cluster": true,
	"schemble/internal/adapt":   true,
	"schemble/internal/engine":  true,
}

// Analyzer is the enginepure analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "enginepure",
	Doc: "forbid goroutines, channel operations, wall-clock/timer reads, global " +
		"randomness, and package-level mutable state in engine-agnostic packages " +
		"shared by serve and sim",
	Directives: []string{"enginepure-ok"},
	Run:        run,
}

// rngImports are the import paths that smuggle randomness into shared
// code; engine-agnostic packages must take injected sources instead.
var rngImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// timeFuncs are the time package entry points that read the wall clock
// or arm runtime timers (timers both read the clock and spawn runtime
// goroutines).
var timeFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc"}

const directive = "enginepure-ok"

func run(pass *analysis.Pass) error {
	if !Packages[pass.Unit.Base] {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Unit.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // tests drive the package from an engine's side; they may use engine machinery
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if rngImports[path] {
				pass.Report(imp.Pos(), directive,
					"import of %s in engine-agnostic package %s: randomness must be injected by the engine so sim and serve replay bit-identically",
					path, pass.Unit.Base)
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || isErrSentinel(info, vs) {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pass.Report(name.Pos(), directive,
						"package-level mutable state (var %s) in engine-agnostic package %s: shared state must live in instances the engines own and replay",
						name.Name, pass.Unit.Base)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Pos(), directive,
					"goroutine launch in engine-agnostic package %s: the engines own all concurrency; shared code must stay single-threaded per call",
					pass.Unit.Base)
			case *ast.SendStmt:
				pass.Report(n.Pos(), directive,
					"channel send in engine-agnostic package %s: shared code must not depend on engine scheduling",
					pass.Unit.Base)
			case *ast.SelectStmt:
				pass.Report(n.Pos(), directive,
					"select statement in engine-agnostic package %s: shared code must not depend on engine scheduling",
					pass.Unit.Base)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Report(n.Pos(), directive,
						"channel receive in engine-agnostic package %s: shared code must not depend on engine scheduling",
						pass.Unit.Base)
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						pass.Report(n.Pos(), directive,
							"range over a channel in engine-agnostic package %s: shared code must not depend on engine scheduling",
							pass.Unit.Base)
					}
				}
			case *ast.CallExpr:
				if b := builtinName(info, n); b == "make" && len(n.Args) > 0 {
					if t := info.Types[n.Args[0]].Type; t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							pass.Report(n.Pos(), directive,
								"channel creation in engine-agnostic package %s: shared code must not depend on engine scheduling",
								pass.Unit.Base)
						}
					}
				} else if b == "close" {
					pass.Report(n.Pos(), directive,
						"channel close in engine-agnostic package %s: shared code must not depend on engine scheduling",
						pass.Unit.Base)
				}
				if analysis.IsPkgFunc(info, n, "time", timeFuncs...) {
					pass.Report(n.Pos(), directive,
						"wall-clock/timer call (time.%s) in engine-agnostic package %s: take the caller's virtual clock so sim and serve share this code verbatim",
						analysis.Callee(info, n).Name(), pass.Unit.Base)
				}
			}
			return true
		})
	}
	return nil
}

// isErrSentinel reports whether every value in the spec is an
// errors.New or fmt.Errorf call — the one package-level var idiom the
// contract tolerates, because sentinel errors are write-once by strong
// convention and carry no replayable state.
func isErrSentinel(info *types.Info, vs *ast.ValueSpec) bool {
	if len(vs.Values) == 0 || len(vs.Values) != len(vs.Names) {
		return false
	}
	for _, v := range vs.Values {
		call, ok := ast.Unparen(v).(*ast.CallExpr)
		if !ok {
			return false
		}
		if !analysis.IsPkgFunc(info, call, "errors", "New") &&
			!analysis.IsPkgFunc(info, call, "fmt", "Errorf") {
			return false
		}
	}
	return true
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
