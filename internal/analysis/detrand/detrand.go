// Package detrand enforces schemble's determinism contract: inside the
// packages whose outputs must replay bit-identically from a seed (the
// simulator, models, scheduler, and the training/eval pipeline), no code
// may read the wall clock, use the globally-seeded math/rand, or let Go's
// randomized map iteration order feed results. Randomness must flow from
// an injected schemble/internal/rng.Source and time from the virtual
// clock, or replays diverge in ways no unit test reliably catches.
package detrand

import (
	"go/ast"
	"go/types"
	"strconv"

	"schemble/internal/analysis"
)

// criticalPkgs are the packages under the bit-identical-replay contract.
// internal/serve is included for its wall-clock reads: the serving
// runtime legitimately anchors virtual time to the wall clock, but every
// such site must carry an audited //schemble:wallclock annotation.
var criticalPkgs = map[string]bool{
	"schemble/internal/sim":         true,
	"schemble/internal/model":       true,
	"schemble/internal/ensemble":    true,
	"schemble/internal/policy":      true,
	"schemble/internal/nn":          true,
	"schemble/internal/gbdt":        true,
	"schemble/internal/discrepancy": true,
	"schemble/internal/pipeline":    true,
	"schemble/internal/cluster":     true,
	"schemble/internal/filling":     true,
	"schemble/internal/serve":       true,
	"schemble/internal/core":        true,
	"schemble/internal/qos":         true,
	"schemble/internal/rcache":      true,
	"schemble/internal/trace":       true,
	"schemble/internal/adapt":       true,
	"schemble/internal/engine":      true,
}

// Analyzer is the detrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock reads, global math/rand, and map-order-dependent " +
		"iteration in determinism-critical packages",
	Directives: []string{"wallclock", "rand-ok", "maporder-ok"},
	Run:        run,
}

func run(pass *analysis.Pass) error {
	if !criticalPkgs[pass.Unit.Base] {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Unit.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // tests may use wall time; sleeptest governs them
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Report(imp.Pos(), "rand-ok",
					"import of %s in determinism-critical package %s: draw from an injected schemble/internal/rng.Source so runs replay bit-identically",
					path, pass.Unit.Base)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if analysis.IsPkgFunc(info, n, "time", "Now", "Since", "Until") {
					pass.Report(n.Pos(), "wallclock",
						"wall-clock read (time.%s) in determinism-critical package %s: use the virtual clock so replays are bit-identical",
						analysis.Callee(info, n).Name(), pass.Unit.Base)
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !isSortKeysIdiom(info, n) {
						pass.Report(n.Pos(), "maporder-ok",
							"map iteration order is randomized and can leak into deterministic output: collect and sort the keys first")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSortKeysIdiom recognizes the approved fix pattern — a loop whose
// whole body appends the range key to a slice (to be sorted before the
// real iteration):
//
//	for k := range m { keys = append(keys, k) }
func isSortKeysIdiom(info *types.Info, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && info.Uses[arg] == info.Defs[key]
}
