// Package use imports lib and reverses its lock order; the cycle is
// only visible through lib's exported acquisition facts.
package use

import "catcam/internal/analysis/lockcheck/testdata/src/lockdep/lib"

// Cross holds B.Mu and calls into A: the reverse of lib.Feed's order.
func Cross(a *lib.A, b *lib.B) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	a.Inc() // want `Cross acquires lib\.A\.Mu while holding lib\.B\.Mu, closing a lock-order cycle`
}
