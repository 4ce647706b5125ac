// Package directive exercises the directives hygiene analyzer.
package directive

import "sync"

type thing struct {
	mu sync.Mutex

	a int //catcam:guarded-by mu
	b int //catcam:gaurded-by mu // want `malformed catcam directive`
	c int //catcam:cycle-state
	d int //catcam:immutable // want `malformed catcam directive`
}

//catcam:hotpath
func fine(t *thing) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.a
}

func badAllow(t *thing) int {
	return t.a //catcam:allow lock missing-quotes // want `malformed catcam directive`
}

func noCategory(t *thing) int {
	return t.a //catcam:allow "reason but no category" // want `malformed catcam directive`
}

func goodAllow(t *thing) int {
	return t.a //catcam:allow lock "read is racy by design in this probe"
}
