// Package lint machine-enforces the two invariants everything in this
// repository leans on — determinism and zero-allocation hot paths — as
// a suite of static analyzers run by cmd/pramvet over the whole tree
// on every CI run.
//
// # Why a linter
//
// The simulator's contract is that a run is a pure function of
// (seed, specs, script): the same inputs produce bit-for-bit identical
// step reports, PRAMTRC1 traces and store fingerprints across engine
// counts K and host machines. That property is what the
// golden tests, the record/replay verifier and the serving
// -check gate all certify — but they certify it AFTER a violation is
// written, on the inputs they happen to run. The analyzers here reject
// the violating LINE at review time, for every input:
//
//	nowallclock    no time.Now/Since/Until/Sleep/NewTimer/NewTicker/
//	               After/AfterFunc/Tick in the virtual-time packages
//	               (model, quorum, mot, replay, serve, experiments).
//	               A file whose job is wall-clock bound — the HTTP
//	               round loop, experiment latency measurement — opts
//	               out per file with //pram:wallclock.
//	nomaprange     no range over a map in deterministic packages (the
//	               root package and internal/...): Go randomizes map
//	               iteration order per run. Commutative loop bodies
//	               are annotated //pram:unordered; keyless ranges
//	               (`for range m`) are exempt because the body cannot
//	               observe order.
//	noglobalrand   no package-level math/rand (or v2) functions
//	               anywhere in the module: the global source is shared
//	               process-wide state, so any call-order perturbation
//	               reseeds every subsequent draw. Randomness flows
//	               through explicitly seeded *rand.Rand values.
//	hotalloc       inside functions annotated //pram:hotpath, flag the
//	               constructs that defeat the zero-alloc invariant the
//	               AllocsPerRun tests and cmd/bench -diff lock in:
//	               fmt.* calls, interface boxing at call sites and
//	               conversions, closures capturing enclosing
//	               variables, and append to slices not rooted in the
//	               receiver or a pointer parameter (local aliases of
//	               owned arenas — `sc := &m.sc; recs := sc.recs[:0]` —
//	               are traced and stay owned). Deliberately cold lines
//	               (panic guards, error exits) carry //pram:coldalloc.
//	pramdirective  validates the //pram: grammar itself: unknown
//	               names, misplaced file-scoped wallclock, hotpath
//	               outside a function doc comment, and annotations in
//	               packages their analyzer never checks.
//
// Every suppression is itself checked: an annotation with nothing left
// to excuse is reported as stale, so escape hatches cannot outlive the
// code they excused. The //pram: directive grammar is specified on
// directivePrefix in directives.go; the package scope predicates
// (which import paths carry which invariant) live in scope.go.
//
// # Framework
//
// The Analyzer/Pass shapes mirror golang.org/x/tools/go/analysis, but
// the implementation is standard library only (go/ast, go/types): this
// repository builds in environments with no module cache beyond the
// standard library, so x/tools is deliberately not a dependency.
// Package loading (load.go) shells out to `go list -json -deps` and
// type-checks bottom-up from source. If x/tools ever becomes
// available, each Analyzer ports mechanically to the real
// multichecker. Tests drive the analyzers through the miniature
// analysistest in the linttest subpackage against fixture packages
// under testdata/src.
package lint
