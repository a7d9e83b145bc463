package btree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"sqlarray/internal/pages"
)

// leafRunTree builds a multi-leaf tree with uneven leaves: values of
// random length, and a deleted block of keys that leaves some leaves
// empty in the chain.
func leafRunTree(t *testing.T, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := newTestTree(t, 256)
	for i := int64(0); i < 3000; i++ {
		if err := tr.Insert(i, make([]byte, 8+rng.Intn(120))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1200); i < 1700; i++ {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// scanByNext collects up to limit keys of [lo, hi] through Next and
// returns them with the logical reads the scan took, open to close.
func scanByNext(t *testing.T, tr *Tree, lo, hi int64, limit int) ([]int64, uint64) {
	t.Helper()
	before := tr.bp.Stats().LogicalReads
	it, err := tr.ScanRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for len(keys) < limit && it.Next() {
		keys = append(keys, it.Key())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	return keys, tr.bp.Stats().LogicalReads - before
}

// scanByRuns is scanByNext through LeafRun with runs capped at max.
func scanByRuns(t *testing.T, tr *Tree, lo, hi int64, limit, max int) ([]int64, uint64) {
	t.Helper()
	before := tr.bp.Stats().LogicalReads
	it, err := tr.ScanRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for len(keys) < limit {
		leaf, from, to, err := it.LeafRun(min(max, limit-len(keys)))
		if err != nil {
			t.Fatal(err)
		}
		if leaf == nil {
			break
		}
		if to <= from || to-from > max {
			t.Fatalf("LeafRun(%d) = [%d,%d)", max, from, to)
		}
		for i := from; i < to; i++ {
			k, _, err := LeafRecord(leaf, i)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	it.Close()
	return keys, tr.bp.Stats().LogicalReads - before
}

func TestLeafRunMatchesNext(t *testing.T) {
	tr := leafRunTree(t, 1)
	// Every leaf's last key: a bound equal to one makes Next look ahead
	// into the next leaf, and LeafRun must do the same.
	var lastKeys []int64
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for {
		leaf, _, to, err := it.LeafRun(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if leaf == nil {
			break
		}
		k, _, _ := LeafRecord(leaf, to-1)
		lastKeys = append(lastKeys, k)
	}
	it.Close()
	if len(lastKeys) < 10 {
		t.Fatalf("tree has %d non-empty leaves, want a multi-leaf tree", len(lastKeys))
	}
	type bounds struct{ lo, hi int64 }
	ranges := []bounds{
		{-1 << 62, 1 << 62},
		{0, 2999},
		{17, 2000},                      // cut mid-leaf on both ends
		{lastKeys[2], lastKeys[5]},      // hi at a leaf's last key
		{lastKeys[2] + 1, lastKeys[3]},  // lo at a leaf's start
		{1100, 1800},                    // across the emptied leaves
		{1250, 1650},                    // entirely deleted
		{500, 500},                      // point
		{2999, 5000},                    // last key only
		{3000, 5000},                    // past the end
		{40, 30},                        // inverted
		{lastKeys[0], lastKeys[0]},      // a leaf's last key alone
		{-5, lastKeys[len(lastKeys)-1]}, // hi at the tree's last key
	}
	for _, r := range ranges {
		for _, limit := range []int{1 << 30, 1, 7, 300} {
			want, wantReads := scanByNext(t, tr, r.lo, r.hi, limit)
			for _, max := range []int{1, 7, 1024} {
				got, reads := scanByRuns(t, tr, r.lo, r.hi, limit, max)
				if len(got) != len(want) {
					t.Fatalf("[%d,%d] limit %d max %d: %d keys, Next gave %d", r.lo, r.hi, limit, max, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("[%d,%d] limit %d max %d: key %d = %d, Next gave %d", r.lo, r.hi, limit, max, i, got[i], want[i])
					}
				}
				if reads != wantReads {
					t.Errorf("[%d,%d] limit %d max %d: %d logical reads, Next took %d", r.lo, r.hi, limit, max, reads, wantReads)
				}
				if p := tr.bp.PinnedFrames(); p != 0 {
					t.Fatalf("[%d,%d]: %d frames pinned after Close", r.lo, r.hi, p)
				}
			}
		}
	}
}

func TestLeafRunInterleavesWithNext(t *testing.T) {
	tr := leafRunTree(t, 2)
	want, _ := scanByNext(t, tr, 0, 2999, 1<<30)
	it, err := tr.ScanRange(0, 2999)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []int64
	for step := 0; ; step++ {
		if step%2 == 0 {
			if !it.Next() {
				break
			}
			got = append(got, it.Key())
			continue
		}
		leaf, from, to, err := it.LeafRun(5)
		if err != nil {
			t.Fatal(err)
		}
		if leaf == nil {
			break
		}
		for i := from; i < to; i++ {
			k, _, _ := LeafRecord(leaf, i)
			got = append(got, k)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("interleaved scan = %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// corruptSlot rewrites slot i of page id's directory in place through a
// pinned frame. The frame is unpinned clean, so the damage stays in the
// pool and never reaches disk.
func corruptSlot(t *testing.T, bp *pages.BufferPool, id pages.PageID, i int, off, ln uint16) {
	t.Helper()
	f, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	base := pages.PageSize - (i+1)*4
	binary.LittleEndian.PutUint16(f.Page.Buf[base:], off)
	binary.LittleEndian.PutUint16(f.Page.Buf[base+2:], ln)
	bp.Unpin(f, false)
}

func TestCorruptLeafSlotIsAnError(t *testing.T) {
	cases := []struct {
		name    string
		off, ln uint16
		want    error
	}{
		{"dead", 0, 0, pages.ErrBadSlot},
		{"outside page", pages.PageSize - 4, 100, pages.ErrBadPage},
		{"no key", pages.HeaderSize, 4, pages.ErrBadPage},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := newTestTree(t, 16)
			for i := int64(0); i < 50; i++ {
				if err := tr.Insert(i, val(i)); err != nil {
					t.Fatal(err)
				}
			}
			corruptSlot(t, tr.bp, tr.Root(), 10, c.off, c.ln)

			it, err := tr.Scan()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for it.Next() {
				n++
			}
			if err := it.Err(); !errors.Is(err, c.want) {
				t.Errorf("Next: err = %v after %d keys, want %v", err, n, c.want)
			}
			if n != 10 {
				t.Errorf("Next yielded %d keys before the corrupt slot, want 10", n)
			}
			it.Close()

			it, err = tr.Scan()
			if err != nil {
				t.Fatal(err)
			}
			leaf, from, to, err := it.LeafRun(1024)
			if err != nil {
				t.Fatal(err) // the run itself only reads the leaf's last key
			}
			var recErr error
			for i := from; i < to && recErr == nil; i++ {
				_, _, recErr = LeafRecord(leaf, i)
			}
			if !errors.Is(recErr, c.want) {
				t.Errorf("LeafRecord over the run: %v, want %v", recErr, c.want)
			}
			it.Close()

			// Corrupting the last slot fails the run itself.
			corruptSlot(t, tr.bp, tr.Root(), 49, c.off, c.ln)
			it, err = tr.ScanRange(0, 20)
			if err != nil {
				t.Fatal(err)
			}
			if leaf, _, _, err := it.LeafRun(1024); leaf != nil || !errors.Is(err, c.want) {
				t.Errorf("LeafRun over a corrupt last slot = %v, %v; want nil, %v", leaf != nil, err, c.want)
			}
			if !errors.Is(it.Err(), c.want) {
				t.Errorf("Err after failed LeafRun = %v", it.Err())
			}
			it.Close()
			if p := tr.bp.PinnedFrames(); p != 0 {
				t.Errorf("%d frames pinned after Close", p)
			}
		})
	}
}
