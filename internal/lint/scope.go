package lint

import "strings"

// Module is the import-path prefix of this repository's module. The
// scope predicates below match full import paths against it so that a
// hypothetical downstream package that happens to be called "quorum"
// never inherits this repo's invariants by accident.
const Module = "repro"

// virtualTimePackages are the packages that run in VIRTUAL round/cycle
// time: everything observable about them must be a pure function of
// (seed, specs, script), so any wall-clock read is a determinism bug.
// internal/serve is on the list even though its HTTP front end
// necessarily runs a wall-clock loop: that one file opts out with a
// file-scoped //pram:wallclock annotation, which nowallclock verifies.
// internal/experiments is on the list because experiment REPORTS feed
// CSV goldens; its wall-clock latency measurements likewise opt out
// per file with a justification comment.
var virtualTimePackages = map[string]bool{
	"model":       true,
	"quorum":      true,
	"mot":         true,
	"replay":      true,
	"serve":       true,
	"experiments": true,
}

// IsVirtualTimePackage reports whether the package at path must stay
// free of wall-clock reads (the nowallclock invariant).
func IsVirtualTimePackage(path string) bool {
	rest, ok := strings.CutPrefix(path, Module+"/internal/")
	return ok && virtualTimePackages[rest]
}

// IsDeterministicPackage reports whether the package at path carries the
// bit-for-bit determinism invariant (the nomaprange invariant): the root
// package and everything under internal/. The cmd/ and examples/ trees
// are presentation layers — their output ordering is governed by the
// stats/table layer they call into, not by their own loops — so they are
// deliberately outside this set.
func IsDeterministicPackage(path string) bool {
	if path == Module {
		return true
	}
	return strings.HasPrefix(path, Module+"/internal/")
}

// IsModulePackage reports whether the package at path belongs to this
// module at all (the noglobalrand invariant applies module-wide,
// including cmd/ and examples/).
func IsModulePackage(path string) bool {
	return path == Module || strings.HasPrefix(path, Module+"/")
}
