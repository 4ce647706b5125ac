package sram

import (
	"math/rand"
	"reflect"
	"testing"

	"catcam/internal/bitvec"
	"catcam/internal/ternary"
)

func smallParams(rows, cols int) Params {
	p := PriorityMatrixParams()
	p.Rows, p.Cols = rows, cols
	return p
}

func TestTableIConstants(t *testing.T) {
	m := MatchMatrixParams()
	if m.Rows != 256 || m.Cols != 160 {
		t.Fatalf("match matrix dims %dx%d", m.Rows, m.Cols)
	}
	p := PriorityMatrixParams()
	if p.Rows != 256 || p.Cols != 256 {
		t.Fatalf("priority matrix dims %dx%d", p.Rows, p.Cols)
	}
	if m.ComputeDelayPs != 585 || p.ComputeDelayPs != 505 {
		t.Fatal("compute delays do not match Table I")
	}
}

func TestBaseComputeCalibration(t *testing.T) {
	for _, p := range []Params{MatchMatrixParams(), PriorityMatrixParams()} {
		full := p.ComputeEnergyFJ(p.Rows)
		want := p.EnergyPerBitFJ * float64(p.Rows) * float64(p.Cols)
		if diff := full - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: full-array energy %.1f fJ, want %.1f", p.Name, full, want)
		}
		if p.BaseComputeFJ() < 0 {
			t.Errorf("%s: negative base energy", p.Name)
		}
	}
}

func TestEnergyMonotonicInActivity(t *testing.T) {
	p := PriorityMatrixParams()
	prev := -1.0
	for n := 0; n <= p.Rows; n += 16 {
		e := p.ComputeEnergyFJ(n)
		if e <= prev {
			t.Fatalf("energy not increasing at %d active rows", n)
		}
		prev = e
	}
}

func TestArrayRowReadWrite(t *testing.T) {
	a := NewArray(smallParams(8, 8))
	v := bitvec.FromIndices(8, 1, 3, 5)
	a.WriteRow(2, v)
	got := a.ReadRow(2)
	if !got.Equal(v) {
		t.Fatalf("row round-trip: got %s want %s", got, v)
	}
	s := a.Stats()
	if s.RowWrites != 1 || s.RowReads != 1 || s.Cycles != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.EnergyFJ <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestArrayBoundsPanics(t *testing.T) {
	a := NewArray(smallParams(4, 4))
	cases := []func(){
		func() { a.ReadRow(4) },
		func() { a.WriteRow(-1, bitvec.New(4)) },
		func() { a.WriteRow(0, bitvec.New(5)) },
		func() { a.WriteColumn(4, bitvec.New(4)) },
		func() { a.WriteColumn(0, bitvec.New(3)) },
		func() { a.ColumnNOR(bitvec.New(5)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNewArrayInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dims accepted")
		}
	}()
	NewArray(smallParams(0, 4))
}

func TestColumnWriteDualVoltage(t *testing.T) {
	a := NewArray(smallParams(8, 8))
	col := bitvec.FromIndices(8, 0, 2, 7)
	a.WriteColumn(3, col)
	for r := 0; r < 8; r++ {
		if a.Bit(r, 3) != col.Get(r) {
			t.Fatalf("column bit %d wrong", r)
		}
	}
	if s := a.Stats(); s.Cycles != 2 || s.ColWrites != 1 {
		t.Fatalf("column write should cost exactly 2 cycles: %+v", s)
	}
}

// TestSnapshotViewSharing: a sharing freeze hands back the previous
// view while the matrix is unchanged, and a fresh copy — which later
// writes cannot reach — once a write changed it.
func TestSnapshotViewSharing(t *testing.T) {
	a := NewArray(smallParams(8, 8))
	a.WriteRow(1, bitvec.FromIndices(8, 2, 5))
	v1 := a.SnapshotView()
	if v2 := a.SnapshotViewSharing(v1); v2 != v1 {
		t.Fatal("an unchanged matrix was copied")
	}
	a.WriteColumn(3, bitvec.FromIndices(8, 0))
	v3 := a.SnapshotViewSharing(v1)
	if v3 == v1 || v1.chunks[0][0] != 0 {
		t.Fatal("a changed matrix shared, or wrote through to, the previous view")
	}
	if a.SnapshotViewSharing(v3) != v3 {
		t.Fatal("the fresh view is not the matrix's contents")
	}
	if a.SnapshotViewSharing(nil) == v3 {
		t.Fatal("a freeze with nothing to share returned a published view")
	}
}

// TestArrayWrittenPartRecord: a sharing freeze over the view the last
// one returned compares only the chunks written since and takes every
// other chunk from that view unread, so a chunk changed behind the
// write paths' backs stays the previous view's (the gap
// core.Device.CheckInvariant closes). Any other previous view is
// compared chunk by chunk, and a plain SnapshotView between two
// sharing freezes neither reads nor clears the record.
func TestArrayWrittenPartRecord(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(47))
	randomRow := func() *bitvec.Vector {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		return v
	}
	a := NewArray(smallParams(n, n))
	for r := 0; r < n; r++ {
		a.WriteRow(r, randomRow())
	}
	old := a.SnapshotView()
	v1 := a.SnapshotViewSharing(old)
	if v1 != old {
		t.Fatal("an unchanged matrix was copied")
	}

	const row = 40
	a.WriteRow(row, randomRow())
	a.SnapshotView() // an audit freeze between two publishes
	v2 := a.SnapshotViewSharing(v1)
	if !reflect.DeepEqual(v2, a.SnapshotView()) {
		t.Fatal("the freeze after a row write differs from a fresh one")
	}
	for r := 0; r < n; r += ChunkRows {
		for c := 0; c < n; c += 64 {
			if shared := v2.SharesChunk(v1, r, c); shared == (r/ChunkRows == row/ChunkRows) {
				t.Fatalf("chunk of (%d, %d) shared = %v after a write to row %d", r, c, shared, row)
			}
		}
	}

	a.chunks[0][0] ^= 1 // no write path: nothing marks the chunk
	if v3 := a.SnapshotViewSharing(v2); v3 != v2 {
		t.Fatal("a freeze over the recorded view read a chunk no write marked")
	}
	if reflect.DeepEqual(v2, a.SnapshotView()) {
		t.Fatal("the unmarked change did not reach the live array")
	}
	v4 := a.SnapshotViewSharing(old)
	if !reflect.DeepEqual(v4, a.SnapshotView()) {
		t.Fatal("a freeze over a view other than the recorded one trusted the record")
	}
	if a.SnapshotViewSharing(v4) != v4 {
		t.Fatal("the full compare's view is not the matrix's contents")
	}
}

// TestMatrixViewColumnNORMatchesArray holds a frozen view's decision
// to the live array's, bit for bit and in its accounting, at heights
// that fill a chunk partly, exactly and many times over, both for a
// fresh freeze and for one that shares chunks with the view before a
// row and a column write. The shared view must equal a fresh freeze,
// share every chunk the writes left alone, and leave the previous view
// as it was.
func TestMatrixViewColumnNORMatchesArray(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randomVec := func(n int, p float64) *bitvec.Vector {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				v.Set(i)
			}
		}
		return v
	}
	check := func(n int, a *Array, v *MatrixView) {
		t.Helper()
		for trial := 0; trial < 50; trial++ {
			active := randomVec(n, []float64{0.02, 0.3, 1}[trial%3])
			var st Stats
			got := v.ColumnNORInto(bitvec.New(n), active, &st)
			a.ResetStats()
			want := a.ColumnNOR(active)
			if !got.Equal(want) {
				t.Fatalf("n=%d: view decides %s, array %s", n, got, want)
			}
			if st != a.Stats() {
				t.Fatalf("n=%d: view accounted %+v, array %+v", n, st, a.Stats())
			}
		}
	}
	for _, n := range []int{2, 4, 8, 17, 64, 256} {
		a := NewArray(smallParams(n, n))
		for r := 0; r < n; r++ {
			a.WriteRow(r, randomVec(n, 0.5))
		}
		prev := a.SnapshotView()
		prevCopy := a.SnapshotView()
		check(n, a, prev)

		wr, wc := rng.Intn(n), rng.Intn(n)
		a.WriteRow(wr, randomVec(n, 0.5))
		a.WriteColumn(wc, randomVec(n, 0.5))
		v := a.SnapshotViewSharing(prev)
		check(n, a, v)
		if !reflect.DeepEqual(v, a.SnapshotView()) {
			t.Fatalf("n=%d: the sharing freeze differs from a fresh one", n)
		}
		if !reflect.DeepEqual(prev, prevCopy) {
			t.Fatalf("n=%d: the writes reached the previous view", n)
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if written := r/ChunkRows == wr/ChunkRows || c/64 == wc/64; !written && !v.SharesChunk(prev, r, c) {
					t.Fatalf("n=%d: chunk of (%d, %d) copied, though the writes to row %d and column %d left it alone", n, r, c, wr, wc)
				}
			}
		}
	}
}

func TestColumnWritePreservesOtherColumns(t *testing.T) {
	a := NewArray(smallParams(8, 8))
	rowPattern := bitvec.FromIndices(8, 0, 1, 2, 3, 4, 5, 6, 7)
	a.WriteRow(4, rowPattern)
	a.WriteColumn(2, bitvec.New(8)) // clear column 2
	for c := 0; c < 8; c++ {
		want := c != 2
		if a.Bit(4, c) != want {
			t.Fatalf("column write corrupted (4,%d)", c)
		}
	}
}

// TestOwedWritesSettle: deferred writes charge what WriteRow and
// WriteColumn charge, when charged, and store what they store when
// performed; a write never charged panics. The 40-row array pads its
// last chunk and its last column word.
func TestOwedWritesSettle(t *testing.T) {
	p := smallParams(40, 40)
	owed, now := NewArray(p), NewArray(p)
	// Row 3 ranks below row 17; both are inserted, with row 5 already
	// stored below both and row 30 above both.
	now.WriteRow(3, bitvec.FromIndices(40, 5))
	now.WriteColumn(3, bitvec.FromIndices(40, 30))
	now.WriteRow(17, bitvec.FromIndices(40, 3, 5))
	now.WriteColumn(17, bitvec.FromIndices(40, 30))
	owed.ChargeEntryWrite()
	owed.ChargeEntryWrite()
	if owed.Stats() != now.Stats() || owed.OwedCycles() != 6 {
		t.Fatalf("charged %+v, owing %d; written at once %+v", owed.Stats(), owed.OwedCycles(), now.Stats())
	}
	// Classes: row 17 beats row 3, row 30 beats both; masks per class
	// are the prefixes of the run (3, then 17).
	class := make([]uint16, 48)
	class[17], class[30] = 1, 2
	owed.WriteOwedColumns([]uint64{1<<3 | 1<<17}, class, []uint64{0, 1 << 3, 1<<3 | 1<<17})
	owed.WriteOwedRow(3, bitvec.FromIndices(40, 5).Words())
	owed.WriteOwedRow(17, bitvec.FromIndices(40, 3, 5).Words())
	if owed.OwedCycles() != 0 || owed.Stats() != now.Stats() {
		t.Fatalf("after the writes: owing %d, stats %+v", owed.OwedCycles(), owed.Stats())
	}
	if !reflect.DeepEqual(owed.SnapshotView(), now.SnapshotView()) || !owed.Written().Equal(now.Written()) {
		t.Fatal("deferred writes stored or marked other chunks than writing at once")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a write never charged was performed")
		}
	}()
	owed.WriteOwedRow(3, bitvec.FromIndices(40, 5).Words())
}

func TestColumnRowwiseAblationCost(t *testing.T) {
	fast := NewArray(smallParams(16, 16))
	slow := NewArray(smallParams(16, 16))
	col := bitvec.FromIndices(16, 1, 5, 9)
	fast.WriteColumn(7, col)
	slow.WriteColumnRowwise(7, col)
	for r := 0; r < 16; r++ {
		if fast.Bit(r, 7) != slow.Bit(r, 7) {
			t.Fatal("ablation path writes different bits")
		}
	}
	if fast.Stats().Cycles != 2 {
		t.Fatalf("dual-voltage cost = %d cycles", fast.Stats().Cycles)
	}
	if slow.Stats().Cycles != 16 {
		t.Fatalf("row-wise cost = %d cycles, want 16", slow.Stats().Cycles)
	}
}

func TestColumnNOR(t *testing.T) {
	// Reproduce the priority decision of paper Fig 5/11: P for R0..R3 at
	// rows 1,3,4,2 is not needed — use a direct 4x4 example.
	// rows: r0=0000, r1=1000 (r1 dominated by nobody except...), build:
	// P[i][j]=1 means rule_i beats rule_j.
	a := NewArray(smallParams(4, 4))
	// priorities: rule2 highest, then rule3, rule0, rule1
	set := func(i, j int) {
		row := a.ReadRow(i)
		row.Set(j)
		a.WriteRow(i, row)
	}
	// rule2 > 0,1,3 ; rule3 > 0,1 ; rule0 > 1
	set(2, 0)
	set(2, 1)
	set(2, 3)
	set(3, 0)
	set(3, 1)
	set(0, 1)

	// matched rules: 0,2,3 -> report should be one-hot at 2
	active := bitvec.FromIndices(4, 0, 2, 3)
	report := a.ColumnNOR(active)
	if !report.IsOneHot() || report.First() != 2 {
		t.Fatalf("report = %s, want one-hot at 2", report)
	}
	// matched rules: 0,3 -> winner 3
	report = a.ColumnNOR(bitvec.FromIndices(4, 0, 3))
	if !report.IsOneHot() || report.First() != 3 {
		t.Fatalf("report = %s, want one-hot at 3", report)
	}
	// single match reports itself
	report = a.ColumnNOR(bitvec.FromIndices(4, 1))
	if !report.IsOneHot() || report.First() != 1 {
		t.Fatalf("single-match report = %s", report)
	}
	// no match -> zero vector
	if a.ColumnNOR(bitvec.New(4)).Any() {
		t.Fatal("empty active produced matches")
	}
}

func TestColumnNORRequiresSquare(t *testing.T) {
	a := NewArray(smallParams(4, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("non-square ColumnNOR did not panic")
		}
	}()
	a.ColumnNOR(bitvec.New(4))
}

func TestColumnNORGroundsInactiveColumns(t *testing.T) {
	a := NewArray(smallParams(4, 4))
	report := a.ColumnNOR(bitvec.FromIndices(4, 1, 2))
	// columns 0,3 were not pre-charged: must be 0 even though their
	// cells are all zero.
	if report.Get(0) || report.Get(3) {
		t.Fatalf("inactive columns floated high: %s", report)
	}
}

func TestColumnNOREnergyScalesWithMatches(t *testing.T) {
	a := NewArray(smallParams(256, 256))
	a.ColumnNOR(bitvec.FromIndices(256, 0))
	e1 := a.Stats().EnergyFJ
	a.ResetStats()
	many := bitvec.New(256)
	for i := 0; i < 100; i++ {
		many.Set(i)
	}
	a.ColumnNOR(many)
	e100 := a.Stats().EnergyFJ
	if e100 <= e1 {
		t.Fatal("energy does not scale with matched entries")
	}
}

func TestTernaryArrayBasics(t *testing.T) {
	ta := NewTernaryArray(MatchMatrixParams(), 640)
	if ta.Rows() != 256 || ta.Width() != 640 || ta.Subarrays() != 4 {
		t.Fatalf("geometry wrong: %d %d %d", ta.Rows(), ta.Width(), ta.Subarrays())
	}
	if ta.ValidCount() != 0 || ta.FirstFree() != 0 {
		t.Fatal("new array not empty")
	}
}

func TestNewTernaryArrayWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid width accepted")
		}
	}()
	NewTernaryArray(MatchMatrixParams(), 100)
}

func TestTernaryWriteSearchInvalidate(t *testing.T) {
	p := MatchMatrixParams()
	p.Rows, p.Cols = 8, 4
	ta := NewTernaryArray(p, 4)

	ta.WriteEntry(0, ternary.MustParse("10**"))
	ta.WriteEntry(3, ternary.MustParse("1010"))
	ta.WriteEntry(5, ternary.MustParse("0***"))

	if ta.ValidCount() != 3 {
		t.Fatalf("valid count = %d", ta.ValidCount())
	}
	if ta.FirstFree() != 1 {
		t.Fatalf("FirstFree = %d", ta.FirstFree())
	}

	m := ta.Search(ternary.MustParseKey("1010"))
	if got := m.Indices(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("match vector = %v", got)
	}

	w, ok := ta.ReadEntry(3)
	if !ok || w.String() != "1010" {
		t.Fatalf("ReadEntry = %v %v", w, ok)
	}
	if _, ok := ta.ReadEntry(1); ok {
		t.Fatal("reading invalid entry succeeded")
	}

	ta.Invalidate(3)
	if ta.IsValid(3) {
		t.Fatal("entry still valid after Invalidate")
	}
	m = ta.Search(ternary.MustParseKey("1010"))
	if got := m.Indices(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("match vector after invalidate = %v", got)
	}
}

func TestTernarySearchEnergyScalesWithValidEntries(t *testing.T) {
	p := MatchMatrixParams()
	ta := NewTernaryArray(p, 640)
	w := ternary.NewWord(640) // all-wildcard entry
	ta.WriteEntry(0, w)
	ta.ResetStats()
	ta.Search(ternary.NewKey(640))
	e1 := ta.Stats().EnergyFJ

	for i := 1; i < 100; i++ {
		ta.WriteEntry(i, w)
	}
	ta.ResetStats()
	ta.Search(ternary.NewKey(640))
	e100 := ta.Stats().EnergyFJ
	if e100 <= e1 {
		t.Fatal("search energy does not scale with valid entries")
	}
	// 4 subarrays: energy should be 4x the single-subarray figure
	single := p.ComputeEnergyFJ(100)
	if got := e100 / single; got < 3.99 || got > 4.01 {
		t.Fatalf("subarray scaling = %.3f, want 4", got)
	}
}

func TestTernaryCycleCosts(t *testing.T) {
	p := MatchMatrixParams()
	p.Rows, p.Cols = 4, 4
	ta := NewTernaryArray(p, 4)
	ta.WriteEntry(0, ternary.MustParse("1***"))
	ta.Search(ternary.MustParseKey("1000"))
	ta.ReadEntry(0)
	ta.Invalidate(0)
	if s := ta.Stats(); s.Cycles != 4 {
		t.Fatalf("cycles = %d, want 4 (1 each)", s.Cycles)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 1, RowReads: 2, EnergyFJ: 3}
	b := Stats{Cycles: 10, RowWrites: 5, EnergyFJ: 4}
	a.Add(b)
	if a.Cycles != 11 || a.RowReads != 2 || a.RowWrites != 5 || a.EnergyFJ != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

// Property: ColumnNOR equals the naive per-column NOR definition.
func TestQuickColumnNORAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(60)
		a := NewArray(smallParams(n, n))
		bits := make([][]bool, n)
		for i := range bits {
			bits[i] = make([]bool, n)
			row := bitvec.New(n)
			for j := range bits[i] {
				if rng.Intn(2) == 0 {
					bits[i][j] = true
					row.Set(j)
				}
			}
			a.WriteRow(i, row)
		}
		active := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				active.Set(i)
			}
		}
		got := a.ColumnNOR(active)
		for c := 0; c < n; c++ {
			want := active.Get(c)
			if want {
				active.ForEach(func(r int) bool {
					if bits[r][c] {
						want = false
						return false
					}
					return true
				})
			}
			if got.Get(c) != want {
				t.Fatalf("n=%d col=%d: got %v want %v", n, c, got.Get(c), want)
			}
		}
	}
}

// FuzzArrayWrites drives a square priority array with a random run of
// row writes, column writes (dual-voltage and row-wise) and column
// NORs, and checks every stored bit, every NOR report and the
// statistics against a [][]bool reference and the cost formulas of
// each operation. The arrays are 4×4 (one short chunk), 40×40 (a
// partial word and a partial chunk) and 256×256 (Table I's), and the
// vectors sparse at a fuzzed density, empty, or all active: the case
// the word-wide kernels treat apart.
func FuzzArrayWrites(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(128))
	f.Add(int64(2), uint8(1), uint8(60), uint8(30))
	f.Add(int64(3), uint8(2), uint8(24), uint8(200))
	f.Add(int64(4), uint8(2), uint8(12), uint8(5))
	f.Add(int64(54), uint8(1), uint8(3), uint8(62)) // a column only one row of a full chunk blocks
	f.Fuzz(func(t *testing.T, seed int64, size, ops, density uint8) {
		n := [...]int{4, 40, 256}[size%3]
		rng := rand.New(rand.NewSource(seed))
		p := smallParams(n, n)
		a := NewArray(p)
		ref := make([][]bool, n)
		for r := range ref {
			ref[r] = make([]bool, n)
		}
		vector := func() *bitvec.Vector {
			v := bitvec.New(n)
			switch k := rng.Intn(8); {
			case k < 2:
				v.SetAll()
			case k == 2: // empty
			default:
				for i := 0; i < n; i++ {
					if rng.Intn(256) < int(density) {
						v.Set(i)
					}
				}
			}
			return v
		}
		var want Stats
		// nor runs a NOR over active and checks its report and cost.
		nor := func(op int, active *bitvec.Vector) {
			dst := bitvec.New(n)
			dst.SetAll() // overwritten, never accumulated into
			a.ColumnNORInto(dst, active)
			for c := 0; c < n; c++ {
				bit := active.Get(c)
				for r := 0; r < n && bit; r++ {
					bit = !(active.Get(r) && ref[r][c])
				}
				if dst.Get(c) != bit {
					t.Fatalf("op %d: NOR column %d = %v, want %v (active %s)", op, c, dst.Get(c), bit, active)
				}
			}
			want.Cycles++
			want.NOROps++
			want.EnergyFJ += p.ComputeEnergyFJ(active.Count())
		}
		for op := 0; op < int(ops%64); op++ {
			switch v, i := vector(), rng.Intn(n); rng.Intn(4) {
			case 0:
				a.WriteRow(i, v)
				for c := range ref[i] {
					ref[i][c] = v.Get(c)
				}
				want.Cycles++
				want.RowWrites++
				want.EnergyFJ += p.WriteEnergyPJ * 1000
			case 1:
				a.WriteColumn(i, v)
				for r := range ref {
					ref[r][i] = v.Get(r)
				}
				want.Cycles += 2
				want.ColWrites++
				want.EnergyFJ += 2 * p.WriteEnergyPJ * 1000
			case 2:
				a.WriteColumnRowwise(i, v)
				for r := range ref {
					ref[r][i] = v.Get(r)
				}
				want.Cycles += uint64(n)
				want.RowWrites += uint64(n)
				want.EnergyFJ += float64(n) * p.WriteEnergyPJ * 1000
			case 3:
				nor(op, v)
			}
			if got := a.Stats(); got != want {
				t.Fatalf("op %d: stats %+v, want %+v", op, got, want)
			}
		}
		for r := range ref {
			for c, bit := range ref[r] {
				if a.Bit(r, c) != bit {
					t.Fatalf("bit (%d, %d) = %v, want %v", r, c, a.Bit(r, c), bit)
				}
			}
		}
		all := bitvec.New(n)
		all.SetAll()
		nor(int(ops%64), all) // the all-valid decision that finds a maximum
	})
}
