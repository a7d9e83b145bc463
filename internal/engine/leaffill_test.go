package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sqlarray/internal/btree"
	"sqlarray/internal/pages"
)

// The leaf fill (FillColumns) must be indistinguishable from the
// row-at-a-time scan it replaces (Next + RowView.Col): same keys, same
// values, the same pages fetched, and no pins left after Close. The
// cases are seeded; every failure names its seed.

// scanned is one scan's output: keys, the needed columns' values (in
// need order, binary payloads copied) and the logical reads it took.
type scanned struct {
	keys  []int64
	vals  [][]Value // per row
	reads uint64
}

type fillCase struct {
	lo, hi int64
	need   []bool
	cap    int // FillColumns batch capacity
	limit  int // TOP n; 0 = no limit
}

func (c fillCase) String() string {
	return fmt.Sprintf("[%d,%d] need=%v cap=%d top=%d", c.lo, c.hi, c.need, c.cap, c.limit)
}

func copyBytes(p []byte) []byte { return append([]byte(nil), p...) }

// scanRowView scans through Cursor.Next and RowView.Col. Between rows
// it calls between (a concurrent-commit hook); reads exclude it.
func scanRowView(t *testing.T, tbl *Table, s *Snapshot, c fillCase, between func()) scanned {
	t.Helper()
	bp := tbl.db.bp
	var out scanned
	r0 := bp.Stats().LogicalReads
	cur, err := tbl.CursorRangeAt(s, c.lo, c.hi)
	if err != nil {
		t.Fatal(err)
	}
	for c.limit == 0 || len(out.keys) < c.limit {
		if !cur.Next() {
			break
		}
		row := make([]Value, 0, len(c.need))
		for ci, use := range c.need {
			if !use {
				continue
			}
			v, err := cur.Row().Col(ci)
			if err != nil {
				t.Fatal(err)
			}
			if v.B != nil {
				v.B = copyBytes(v.B)
			}
			row = append(row, v)
		}
		out.keys = append(out.keys, cur.Key())
		out.vals = append(out.vals, row)
		if between != nil {
			r := bp.Stats().LogicalReads
			between()
			r0 += bp.Stats().LogicalReads - r
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	out.reads = bp.Stats().LogicalReads - r0
	return out
}

// scanLeafFill scans through FillColumns in batches of c.cap rows.
func scanLeafFill(t *testing.T, tbl *Table, s *Snapshot, c fillCase, between func()) scanned {
	t.Helper()
	bp := tbl.db.bp
	var out scanned
	keys := make([]int64, c.cap)
	cols := make([][]Value, len(c.need))
	for ci, use := range c.need {
		if use {
			cols[ci] = make([]Value, c.cap)
		}
	}
	r0 := bp.Stats().LogicalReads
	cur, err := tbl.CursorRangeAt(s, c.lo, c.hi)
	if err != nil {
		t.Fatal(err)
	}
	for {
		want := c.cap
		if c.limit > 0 {
			want = min(want, c.limit-len(out.keys))
		}
		if want == 0 {
			break
		}
		n, err := cur.FillColumns(want, c.need, keys, cols, copyBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := make([]Value, 0, len(c.need))
			for ci, use := range c.need {
				if use {
					row = append(row, cols[ci][i])
				}
			}
			out.keys = append(out.keys, keys[i])
			out.vals = append(out.vals, row)
		}
		if n < want {
			break
		}
		if between != nil {
			r := bp.Stats().LogicalReads
			between()
			r0 += bp.Stats().LogicalReads - r
		}
	}
	cur.Close()
	out.reads = bp.Stats().LogicalReads - r0
	return out
}

// scanFillBatch scans through FillBatch (on the leaf run) + RowView.
func scanFillBatch(t *testing.T, tbl *Table, s *Snapshot, c fillCase) scanned {
	t.Helper()
	bp := tbl.db.bp
	var out scanned
	r0 := bp.Stats().LogicalReads
	cur, err := tbl.CursorRangeAt(s, c.lo, c.hi)
	if err != nil {
		t.Fatal(err)
	}
	for {
		want := c.cap
		if c.limit > 0 {
			want = min(want, c.limit-len(out.keys))
		}
		if want == 0 {
			break
		}
		n, err := cur.FillBatch(want, func(key int64, rv *RowView) error {
			row := make([]Value, 0, len(c.need))
			for ci, use := range c.need {
				if !use {
					continue
				}
				v, err := rv.Col(ci)
				if err != nil {
					return err
				}
				if v.B != nil {
					v.B = copyBytes(v.B)
				}
				row = append(row, v)
			}
			out.keys = append(out.keys, key)
			out.vals = append(out.vals, row)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < want {
			break
		}
	}
	cur.Close()
	out.reads = bp.Stats().LogicalReads - r0
	return out
}

func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && bytes.Equal(a.B, b.B)
}

// diffScans returns the first difference between two scans, or "".
func diffScans(want, got scanned, reads bool) string {
	if len(got.keys) != len(want.keys) {
		return fmt.Sprintf("%d rows, want %d", len(got.keys), len(want.keys))
	}
	for i := range want.keys {
		if got.keys[i] != want.keys[i] {
			return fmt.Sprintf("row %d key %d, want %d", i, got.keys[i], want.keys[i])
		}
		for j := range want.vals[i] {
			if !sameValue(got.vals[i][j], want.vals[i][j]) {
				return fmt.Sprintf("row %d (key %d) value %d = %+v, want %+v",
					i, want.keys[i], j, got.vals[i][j], want.vals[i][j])
			}
		}
	}
	if reads && got.reads != want.reads {
		return fmt.Sprintf("%d logical reads, want %d", got.reads, want.reads)
	}
	return ""
}

// randomFillTable creates a table with a random schema — every column
// type, NULLs in every non-key column, VARBINARY(8000) and MAX columns —
// and fills it with rows at sparse random keys. An occasional 1 kB
// inline value makes leaf occupancy uneven. (Larger inline values are
// left out: the B+tree splits leaves by record count, not bytes, so a
// multi-kB row inserted between others can fail with a full page.)
func randomFillTable(t *testing.T, rng *rand.Rand, db *DB) (*Table, []int64) {
	t.Helper()
	types := []ColType{ColInt64, ColFloat64, ColVarBinary, ColVarBinaryMax}
	cols := []Column{{Name: "id", Type: ColInt64}}
	for _, typ := range types { // every type at least once
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", len(cols)), Type: typ})
	}
	for i := rng.Intn(4); i > 0; i-- {
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", len(cols)), Type: types[rng.Intn(len(types))]})
	}
	rng.Shuffle(len(cols)-1, func(i, j int) { cols[i+1], cols[j+1] = cols[j+1], cols[i+1] })
	schema, err := NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var keys []int64
	for len(keys) < 400 {
		k := rng.Int63n(1<<20) - 1<<19
		if seen[k] {
			continue
		}
		seen[k] = true
		row := make([]Value, len(cols))
		row[0] = IntValue(k)
		inlineBudget := 1000
		for ci := 1; ci < len(cols); ci++ {
			if rng.Intn(4) == 0 {
				continue // NULL
			}
			switch cols[ci].Type {
			case ColInt64:
				row[ci] = IntValue(rng.Int63() - rng.Int63())
			case ColFloat64:
				row[ci] = FloatValue(rng.NormFloat64())
			case ColVarBinary:
				n := rng.Intn(64)
				if rng.Intn(40) == 0 {
					n = inlineBudget
				}
				n = min(n, inlineBudget)
				inlineBudget -= n
				b := make([]byte, n)
				rng.Read(b)
				row[ci] = BinaryValue(b)
			case ColVarBinaryMax:
				b := make([]byte, 1+rng.Intn(3000))
				rng.Read(b)
				row[ci] = BinaryMaxValue(b)
			}
		}
		if err := tbl.Insert(row); err != nil {
			if errors.Is(err, ErrRowTooWide) {
				delete(seen, k)
				continue
			}
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return tbl, keys
}

// leafLastKeys returns the last key of every non-empty leaf of the
// table as s sees it.
func leafLastKeys(t *testing.T, tbl *Table, s *Snapshot) []int64 {
	t.Helper()
	tree, ok := tbl.treeAt(s)
	if !ok {
		t.Fatal("table not visible")
	}
	it, err := tree.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var last []int64
	for {
		leaf, _, to, err := it.LeafRun(math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if leaf == nil {
			return last
		}
		k, _, err := btree.LeafRecord(leaf, to-1)
		if err != nil {
			t.Fatal(err)
		}
		last = append(last, k)
	}
}

func TestFillColumnsMatchesRowView(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, err := Open(Options{PoolPages: 1024})
			if err != nil {
				t.Fatal(err)
			}
			tbl, keys := randomFillTable(t, rng, db)
			s := db.Snapshot()
			defer s.Release()
			last := leafLastKeys(t, tbl, s)
			if len(last) < 4 {
				t.Fatalf("seed %d: %d leaves, want several", seed, len(last))
			}
			mid := func() int64 { return keys[rng.Intn(len(keys))] + int64(rng.Intn(3)) - 1 }
			ranges := [][2]int64{
				{math.MinInt64, math.MaxInt64},
				{mid(), mid()},                         // cut mid-leaf (maybe inverted)
				{keys[3], last[1]},                     // hi at a leaf's last key
				{last[0], last[len(last)/2]},           // both at leaves' last keys
				{last[len(last)-2] + 1, math.MaxInt64}, // a leaf's first key on
				{keys[len(keys)-1] + 1, math.MaxInt64}, // past the end
			}
			for _, r := range ranges {
				need := make([]bool, len(tbl.schema.Columns))
				for ci := range need {
					need[ci] = rng.Intn(2) == 0
				}
				for _, needs := range [][]bool{need, make([]bool, len(need))} {
					for _, capRows := range []int{1, 7, 1024} {
						for _, limit := range []int{0, 1 + rng.Intn(20)} {
							c := fillCase{lo: r[0], hi: r[1], need: needs, cap: capRows, limit: limit}
							want := scanRowView(t, tbl, s, c, nil)
							if d := diffScans(want, scanLeafFill(t, tbl, s, c, nil), true); d != "" {
								t.Fatalf("seed %d: FillColumns %v: %s", seed, c, d)
							}
							if d := diffScans(want, scanFillBatch(t, tbl, s, c), true); d != "" {
								t.Fatalf("seed %d: FillBatch %v: %s", seed, c, d)
							}
							if p := db.bp.PinnedFrames(); p != 0 {
								t.Fatalf("seed %d: %v: %d frames pinned after Close", seed, c, p)
							}
						}
					}
				}
			}
		})
	}
}

// randomUpdate rewrites a random row's non-key columns: new values,
// NULLs, and inline payloads of a new length that move the record.
func randomUpdate(t *testing.T, rng *rand.Rand, tbl *Table, keys []int64) {
	cols, vals := []int{}, []Value{}
	for ci := 1; ci < len(tbl.schema.Columns); ci++ {
		if rng.Intn(2) == 0 {
			continue
		}
		var v Value
		if rng.Intn(3) > 0 {
			switch tbl.schema.Columns[ci].Type {
			case ColInt64:
				v = IntValue(rng.Int63())
			case ColFloat64:
				v = FloatValue(rng.Float64())
			case ColVarBinary:
				v = BinaryValue(make([]byte, rng.Intn(200)))
			case ColVarBinaryMax:
				v = BinaryMaxValue(make([]byte, 1+rng.Intn(500)))
			}
		}
		cols, vals = append(cols, ci), append(vals, v)
	}
	if err := tbl.Update(keys[rng.Intn(len(keys))], cols, vals); err != nil && !errors.Is(err, ErrRowTooWide) {
		t.Error(err)
	}
}

func TestFillColumnsSnapshotUnderConcurrentUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, err := Open(Options{PoolPages: 2048})
			if err != nil {
				t.Fatal(err)
			}
			tbl, keys := randomFillTable(t, rng, db)
			s := db.Snapshot()
			defer s.Release()
			need := make([]bool, len(tbl.schema.Columns))
			for ci := range need {
				need[ci] = true
			}
			c := fillCase{lo: math.MinInt64, hi: math.MaxInt64, need: need, cap: 7}
			want := scanRowView(t, tbl, s, c, nil)

			// Lock-step: an UPDATE commits between every batch (and every
			// row of the reference scan). The snapshot must read the state
			// as of its acquisition through the same pages; the updates'
			// own reads are excluded from the counts.
			update := func() { randomUpdate(t, rng, tbl, keys) }
			if d := diffScans(want, scanLeafFill(t, tbl, s, c, update), true); d != "" {
				t.Fatalf("seed %d: FillColumns with interleaved commits: %s", seed, d)
			}
			if d := diffScans(want, scanRowView(t, tbl, s, c, update), true); d != "" {
				t.Fatalf("seed %d: Next with interleaved commits: %s", seed, d)
			}

			// Free-running: a writer goroutine commits while both scans
			// run (reads are not compared, the writer's count too).
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed * 1000))
				for {
					select {
					case <-stop:
						return
					default:
						randomUpdate(t, wrng, tbl, keys)
					}
				}
			}()
			for round := 0; round < 5; round++ {
				if d := diffScans(want, scanLeafFill(t, tbl, s, c, nil), false); d != "" {
					t.Errorf("seed %d: FillColumns under concurrent commits: %s", seed, d)
					break
				}
				if d := diffScans(want, scanFillBatch(t, tbl, s, c), false); d != "" {
					t.Errorf("seed %d: FillBatch under concurrent commits: %s", seed, d)
					break
				}
			}
			close(stop)
			wg.Wait()
			if p := db.bp.PinnedFrames(); p != 0 {
				t.Fatalf("seed %d: %d frames pinned after Close", seed, p)
			}
		})
	}
}

// corruptLeafSlot points slot i of the table's single leaf outside the
// page, through a pinned frame that is then unpinned clean.
func corruptLeafSlot(t *testing.T, tbl *Table, i int) {
	t.Helper()
	if tbl.tree.Height() != 1 {
		t.Fatalf("want a single-leaf table, height %d", tbl.tree.Height())
	}
	f, err := tbl.db.bp.Fetch(tbl.tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	base := pages.PageSize - (i+1)*4
	f.Page.Buf[base], f.Page.Buf[base+1] = 0xF0, 0x1F   // offset 8176
	f.Page.Buf[base+2], f.Page.Buf[base+3] = 0x00, 0x01 // length 256
	tbl.db.bp.Unpin(f, false)
}

func TestCorruptLeafSlotFailsEveryScan(t *testing.T) {
	db, err := Open(Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema(Column{Name: "id", Type: ColInt64}, Column{Name: "x", Type: ColFloat64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := tbl.Insert([]Value{IntValue(int64(i)), FloatValue(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	corruptLeafSlot(t, tbl, 20)

	cur, err := tbl.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cur.Next() {
		n++
	}
	if err := cur.Err(); !errors.Is(err, pages.ErrBadPage) || n != 20 {
		t.Errorf("Next: %d rows then %v; want 20 rows then ErrBadPage", n, err)
	}
	cur.Close()

	cur, err = tbl.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	n, err = cur.FillBatch(1024, func(int64, *RowView) error { return nil })
	if !errors.Is(err, pages.ErrBadPage) || n != 20 {
		t.Errorf("FillBatch = %d, %v; want 20, ErrBadPage", n, err)
	}
	if cur.Next() || !errors.Is(cur.Err(), pages.ErrBadPage) {
		t.Errorf("the scan must stay failed after FillBatch's error: Err = %v", cur.Err())
	}
	cur.Close()

	cur, err = tbl.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 1024)
	for _, need := range [][]bool{{false, true}, nil} {
		n, err = cur.FillColumns(1024, need, keys, [][]Value{nil, make([]Value, 1024)}, copyBytes)
		if !errors.Is(err, pages.ErrBadPage) {
			t.Errorf("FillColumns(need=%v) = %d, %v; want ErrBadPage", need, n, err)
		}
	}
	cur.Close()
	if p := db.bp.PinnedFrames(); p != 0 {
		t.Errorf("%d frames pinned after Close", p)
	}
}
