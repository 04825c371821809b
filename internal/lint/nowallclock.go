package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read or schedule
// against the wall clock. Pure arithmetic on time.Duration and
// construction of zero time.Time values stay legal — only the ambient
// clock is banned.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
}

// NoWallClock enforces the virtual-time invariant: inside the
// virtual-time packages (model, quorum, mot, replay, serve,
// experiments) nothing may consult the wall clock, because every run
// must be a pure function of (seed, specs, script) — the property the
// H13 determinism harness and every golden depend on. A file
// whose job is genuinely wall-clock bound (the HTTP round loop,
// experiment latency measurement) opts out with a file-scoped
// //pram:wallclock annotation above its package clause; the analyzer
// verifies the annotation is actually needed and correctly placed.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc: "forbid time.Now/Since/Until/Sleep/NewTimer/NewTicker/After/AfterFunc/Tick " +
		"in virtual-time packages unless the file is annotated //pram:wallclock",
	Run: runNoWallClock,
}

func runNoWallClock(pass *Pass) error {
	if !IsVirtualTimePackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		exempt := FileWallclock(pass.Fset, f)
		used := false
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if obj.Type().(*types.Signature).Recv() != nil || !wallClockFuncs[obj.Name()] {
				return true
			}
			used = true
			if exempt == nil {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in virtual-time package %s "+
						"(runs must be pure functions of seed/specs/script); "+
						"confine it to a //pram:wallclock file or inject virtual time",
					obj.Name(), pass.Pkg.Path())
			}
			return true
		})
		if exempt != nil {
			exempt.Used = true
			if !used {
				pass.Reportf(exempt.Pos,
					"stale //pram:wallclock: file no longer touches the wall clock; drop the annotation")
			}
		}
	}
	return nil
}
