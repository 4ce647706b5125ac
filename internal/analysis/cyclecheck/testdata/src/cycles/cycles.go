// Package cycles exercises the cyclecheck analyzer: direct
// cycle-state writes, mutator-method calls, accounting detection, and
// the allow hatch.
package cycles

type vec struct{ bits []uint64 }

//catcam:mutator
func (v *vec) Set(i int) { v.bits[i/64] |= 1 << (i % 64) }

//catcam:mutator
func (v *vec) Clear(i int) { v.bits[i/64] &^= 1 << (i % 64) }

func (v *vec) Get(i int) bool { return v.bits[i/64]&(1<<(i%64)) != 0 }

type stats struct {
	Cycles    uint64
	RowWrites uint64
}

type array struct {
	rows    []uint64 //catcam:cycle-state
	valid   *vec     //catcam:cycle-state
	scratch []uint64 // kernel scratch: not modeled storage
	stats   stats
}

func (a *array) Write(r int, w uint64) {
	a.stats.Cycles++
	a.stats.RowWrites++
	a.rows[r] = w
	a.valid.Set(r)
}

func (a *array) WriteBulk(r int, w uint64) {
	a.stats.Cycles += 2
	a.rows[r] |= w
}

func (a *array) Sneak(r int, w uint64) {
	a.rows[r] = w // want `\(\*array\)\.Sneak mutates cycle-state field rows without accounting modeled cycles`
}

func (a *array) SneakMutator(r int) {
	a.valid.Set(r) // want `\(\*array\)\.SneakMutator mutates cycle-state field valid without accounting modeled cycles`
}

func (a *array) SneakIncDec(r int) {
	a.rows[r]++ // want `mutates cycle-state field rows without accounting modeled cycles`
}

func (a *array) Scratchpad(r int, w uint64) {
	a.scratch[r] = w // unannotated scratch: fine
}

func (a *array) Read(r int) bool {
	return a.valid.Get(r) // Get carries no mutator mark: fine
}

// helper is accounted by its callers, so the whole function is waived.
//
//catcam:allow cycles "accounted by Write-path callers"
func (a *array) helper(r int, w uint64) {
	a.rows[r] = w
}

func (a *array) Hatched(r int, w uint64) {
	a.rows[r] = w //catcam:allow cycles "test-only fault injection hook"
}

// newArray is a constructor: fresh state, no modeled access.
func newArray(n int) *array {
	a := &array{rows: make([]uint64, n), valid: &vec{bits: make([]uint64, (n+63)/64)}}
	a.rows[0] = 0
	return a
}

func otherReceiverIsFine(a *array, b *vec) {
	b.Set(1) // b is not rooted in a cycle-state field of a receiver
}

// slab keeps its modeled bits in one slice and reaches them through a
// table of chunk pointers into it, as sram.Array does: a write through
// a chunk is a write to the bits, so both are cycle-state.
type slab struct {
	bits   []uint64     //catcam:cycle-state
	chunks []*[4]uint64 //catcam:cycle-state
	stats  stats
}

func (s *slab) SneakChunk(k, j int) {
	s.chunks[k][j] = 1 // want `\(\*slab\)\.SneakChunk mutates cycle-state field chunks without accounting modeled cycles`
}

func (s *slab) SneakRangeAlias() {
	for _, c := range s.chunks {
		c[0] = 1 // want `\(\*slab\)\.SneakRangeAlias mutates cycle-state field chunks without accounting modeled cycles`
	}
}

func (s *slab) SneakLocalAlias(k int) {
	c := s.chunks[k]
	c[1] |= 2 // want `\(\*slab\)\.SneakLocalAlias mutates cycle-state field chunks without accounting modeled cycles`
}

func (s *slab) SneakSubslice(i int) {
	var tail = s.bits[i:]
	head := tail[:1]
	head[0]++ // want `\(\*slab\)\.SneakSubslice mutates cycle-state field bits without accounting modeled cycles`
}

func (s *slab) AccountedAlias(k int) {
	s.stats.Cycles += 2
	for j, c := 0, s.chunks[k]; j < len(c); j++ {
		c[j] = 0
	}
}

func (s *slab) CopyIsNoAlias(i int) uint64 {
	w := s.bits[i] // a value copy, not a reference
	w |= 1
	return w
}
