package lockcheck_test

import (
	"testing"

	"catcam/internal/analysis/analysistest"
	"catcam/internal/analysis/framework"
	"catcam/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, []*framework.Analyzer{lockcheck.Analyzer}, "locks")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, []*framework.Analyzer{lockcheck.Analyzer}, "order")
}

func TestCrossPackageCycle(t *testing.T) {
	analysistest.Run(t, []*framework.Analyzer{lockcheck.Analyzer}, "lockdep/lib", "lockdep/use")
}
