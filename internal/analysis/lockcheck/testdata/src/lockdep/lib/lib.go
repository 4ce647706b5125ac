// Package lib is the lower tier of the cross-package lock-order golden
// test: it fixes the order A.Mu before B.Mu and exports that fact.
package lib

import "sync"

// A is the outer lock.
type A struct {
	Mu sync.Mutex
	X  int //catcam:guarded-by Mu
}

// B is the inner lock.
type B struct {
	Mu sync.Mutex
	Y  int //catcam:guarded-by Mu
}

// Inc bumps A under its lock.
func (a *A) Inc() {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	a.X++
}

// Inc bumps B under its lock.
func (b *B) Inc() {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	b.Y++
}

// Feed fixes the order: A.Mu is held while B.Mu is acquired.
func (a *A) Feed(b *B) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Inc()
}
