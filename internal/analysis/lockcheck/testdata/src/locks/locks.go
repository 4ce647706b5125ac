// Package locks exercises the lockcheck analyzer: guarded-field
// access rules, helper propagation, read-lock writes, self-deadlock,
// and the allow hatch.
package locks

import "sync"

// Device mirrors the core.Device locking shape.
type Device struct {
	mu sync.Mutex
	rw sync.RWMutex

	stats int //catcam:guarded-by mu
	hits  int //catcam:guarded-by rw
	cfg   int // immutable, unguarded
}

func (d *Device) Good() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Device) Bad() int {
	return d.stats // want `\(\*Device\)\.Bad accesses stats \(guarded by mu\) without holding mu`
}

func (d *Device) BadBeforeLock() {
	d.stats = 1 // want `accesses stats \(guarded by mu\) without holding mu`
	d.mu.Lock()
	d.stats = 2
	d.mu.Unlock()
}

func (d *Device) helper() { d.stats++ } // unexported: callers must hold mu

func (d *Device) helper2() { d.helper() } // transitively needs mu

func (d *Device) ViaHelperGood() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.helper()
}

func (d *Device) ViaHelperBad() {
	d.helper() // want `\(\*Device\)\.ViaHelperBad calls \(\*Device\)\.helper, which accesses fields guarded by mu, without holding mu`
}

func (d *Device) ViaHelper2Bad() {
	d.helper2() // want `calls \(\*Device\)\.helper2, which accesses fields guarded by mu, without holding mu`
}

func (d *Device) Deadlock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = d.Good() // want `calls \(\*Device\)\.Good while holding mu: \(\*Device\)\.Good acquires mu again \(self-deadlock\)`
}

func (d *Device) SequentialOK() {
	d.mu.Lock()
	d.stats++
	d.mu.Unlock()
	_ = d.Good() // released before the call: fine
}

func (d *Device) Relock() {
	d.mu.Lock()
	d.mu.Lock() // want `\(\*Device\)\.Relock acquires mu while already holding it \(self-deadlock\)`
	d.mu.Unlock()
	d.mu.Unlock()
}

// ClosureScoped's closure releases mu when the closure returns, so the
// later call does not run under it.
func (d *Device) ClosureScoped() {
	read := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.stats
	}
	_ = read()
	_ = d.Good()
}

func (d *Device) ReadOnly() int {
	d.rw.RLock()
	defer d.rw.RUnlock()
	return d.hits
}

func (d *Device) WriteUnderRLock() {
	d.rw.RLock()
	defer d.rw.RUnlock()
	d.hits++ // want `\(\*Device\)\.WriteUnderRLock writes hits \(guarded by rw\) while holding only the read lock`
}

func (d *Device) Hatched() int {
	return d.stats //catcam:allow lock "stale snapshot read is deliberate here"
}

func (d *Device) Unguarded() int { return d.cfg }

// Wonky's annotation names a mutex that does not exist.
type Wonky struct {
	//catcam:guarded-by nosuch
	x int // want `Wonky has no sync.Mutex/RWMutex field named nosuch`
}
