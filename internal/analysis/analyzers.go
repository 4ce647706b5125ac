// Package analysis holds the catcam-lint analyzer suite as one list,
// so the command and the canary test in internal/analysis/selftest
// run exactly the same analyzers.
package analysis

import (
	"catcam/internal/analysis/atomiccheck"
	"catcam/internal/analysis/cyclecheck"
	"catcam/internal/analysis/directives"
	"catcam/internal/analysis/epochcheck"
	"catcam/internal/analysis/framework"
	"catcam/internal/analysis/hotpath"
	"catcam/internal/analysis/lockcheck"
	"catcam/internal/analysis/poolcheck"
	"catcam/internal/analysis/ringcheck"
)

// Analyzers is the suite catcam-lint runs, in report order.
var Analyzers = []*framework.Analyzer{
	hotpath.Analyzer,
	lockcheck.Analyzer,
	atomiccheck.Analyzer,
	cyclecheck.Analyzer,
	epochcheck.Analyzer,
	ringcheck.Analyzer,
	poolcheck.Analyzer,
	directives.Analyzer,
}
