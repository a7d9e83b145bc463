package btree

import (
	"fmt"

	"sqlarray/internal/pages"
)

// Iterator walks leaf records in key order — the clustered index scan.
// Usage:
//
//	it, err := tree.Scan()
//	for it.Next() {
//	    key, val := it.Key(), it.Value()
//	}
//	err = it.Err()
//	it.Close()
//
// Value aliases the pinned page buffer and is only valid until the next
// call to Next, LeafRun or Close; copy to retain.
//
// LeafRun is the leaf-at-a-time form of the same walk: it hands back a
// whole run of slots of the pinned leaf at once. Next and LeafRun may be
// interleaved; both advance the same position.
type Iterator struct {
	t     *Tree
	frame *pages.Frame
	slot  int
	// end is LeafRun's slot limit in the current leaf (-1 until the
	// leaf's upper bound is computed); last marks a leaf that holds the
	// range's final key, so the scan ends at end instead of moving on.
	end     int
	last    bool
	key     int64
	val     []byte
	err     error
	done    bool
	hi      int64
	bounded bool
}

// EmptyIterator returns an iterator positioned at the end: Next is
// immediately false, Close is a no-op. The engine hands these out for
// scans of tables that do not exist yet in a snapshot's view.
func EmptyIterator() *Iterator { return &Iterator{done: true} }

// Scan returns an iterator over the whole tree.
func (t *Tree) Scan() (*Iterator, error) {
	leaf, err := t.leftmostLeaf()
	if err != nil {
		return nil, err
	}
	return t.newIterator(leaf, 0)
}

// ScanFrom returns an iterator positioned at the first key >= start.
func (t *Tree) ScanFrom(start int64) (*Iterator, error) {
	leaf, err := t.leafFor(start)
	if err != nil {
		return nil, err
	}
	it, err := t.newIterator(leaf, 0)
	if err != nil {
		return nil, err
	}
	if it.frame != nil {
		slot, _ := searchSlot(&it.frame.Page, start)
		it.slot = slot
	}
	return it, nil
}

// ScanRange returns an iterator over keys in [lo, hi], both inclusive.
// The iterator stops — and releases its pinned page — as soon as it sees
// a key past hi, so a narrow range over a large tree touches only the
// pages the range spans plus the root-to-leaf descent.
func (t *Tree) ScanRange(lo, hi int64) (*Iterator, error) {
	if lo > hi {
		return &Iterator{t: t, done: true}, nil
	}
	it, err := t.ScanFrom(lo)
	if err != nil {
		return nil, err
	}
	it.hi = hi
	it.bounded = true
	return it, nil
}

func (t *Tree) newIterator(leaf pages.PageID, slot int) (*Iterator, error) {
	f, err := t.fx.Fetch(leaf)
	if err != nil {
		return nil, err
	}
	return &Iterator{t: t, frame: f, slot: slot, end: -1}, nil
}

// LeafRecord decodes slot i of a leaf page into its key and value; the
// value aliases the page. Leaves are dense — removal compacts the slot
// directory — so a dead slot, one pointing outside the page or one too
// short to hold a key is corruption and comes back as an error.
func LeafRecord(leaf *pages.Page, i int) (int64, []byte, error) {
	rec, err := leaf.Record(i)
	if err != nil {
		return 0, nil, fmt.Errorf("btree: leaf %d: %w", leaf.ID, err)
	}
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("btree: leaf %d: %w: slot %d holds %d bytes, no key",
			leaf.ID, pages.ErrBadPage, i, len(rec))
	}
	return leafKey(rec), rec[8:], nil
}

// Next advances to the next record, returning false at the end or on
// error (check Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for {
		if it.slot < it.frame.Page.NumSlots() {
			key, val, err := LeafRecord(&it.frame.Page, it.slot)
			if err != nil {
				it.fail(err)
				return false
			}
			it.slot++
			if it.bounded && key > it.hi {
				// Past the upper bound: the scan is over. Unpin now rather
				// than waiting for Close, so a bound-terminated scan leaves
				// no pinned pages even if the caller forgets to Close.
				it.Close()
				return false
			}
			it.key = key
			it.val = val
			return true
		}
		if !it.advance() {
			return false
		}
	}
}

// LeafRun consumes up to max records in one step and returns the pinned
// leaf holding them with their slot range [from, to): every key in it
// lies within the scan's range, in order. Decode the slots with
// LeafRecord. The leaf stays pinned by the iterator until the next call
// to Next, LeafRun or Close; the caller must not unpin it. At the end of
// the range, or on error, leaf is nil; so it is for a max below 1, which
// callers must not pass. Key and Value are not updated.
//
// The upper bound is checked once per leaf against the leaf's last key;
// only a leaf that straddles it is binary-searched for the cut. Leaves
// are fetched exactly as Next fetches them — including the look-ahead
// into the next leaf when the bound equals a leaf's last key — so a scan
// reads the same pages whichever method drives it.
func (it *Iterator) LeafRun(max int) (leaf *pages.Page, from, to int, err error) {
	for !it.done && it.err == nil && max > 0 {
		if it.end < 0 {
			if err := it.bound(); err != nil {
				it.fail(err)
				break
			}
		}
		if it.slot < it.end {
			from, to = it.slot, min(it.end, it.slot+max)
			it.slot = to
			return &it.frame.Page, from, to, nil
		}
		if it.last {
			it.Close()
			break
		}
		if !it.advance() {
			break
		}
	}
	return nil, 0, 0, it.err
}

// bound sets end and last for the current leaf: the whole leaf when its
// last key is within hi, else the first slot past hi.
func (it *Iterator) bound() error {
	p := &it.frame.Page
	n := p.NumSlots()
	it.end, it.last = n, false
	if !it.bounded || n == 0 {
		return nil
	}
	k, _, err := LeafRecord(p, n-1)
	if err != nil || k <= it.hi {
		return err
	}
	// The leaf straddles hi; slot n-1 is known to be past it.
	lo, cut := 0, n-1
	for lo < cut {
		mid := int(uint(lo+cut) >> 1)
		k, _, err := LeafRecord(p, mid)
		if err != nil {
			return err
		}
		if k > it.hi {
			cut = mid
		} else {
			lo = mid + 1
		}
	}
	it.end, it.last = cut, true
	return nil
}

// advance unpins the current leaf and pins its right sibling, returning
// false at the end of the chain or on a fetch error. It is the only way
// Next and LeafRun move between leaves.
func (it *Iterator) advance() bool {
	next := it.frame.Page.Next()
	it.t.fx.Unpin(it.frame, false)
	it.frame = nil
	it.end = -1
	if next == pages.InvalidPageID {
		it.done = true
		return false
	}
	f, err := it.t.fx.Fetch(next)
	if err != nil {
		it.err = err
		it.done = true
		return false
	}
	it.frame = f
	it.slot = 0
	return true
}

// fail ends the scan with err, releasing the pinned leaf.
func (it *Iterator) fail(err error) {
	it.err = err
	it.Close()
}

// Key returns the current record's key.
func (it *Iterator) Key() int64 { return it.key }

// Value returns the current record's value, aliasing the page buffer.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's pinned page. Safe to call twice.
func (it *Iterator) Close() {
	if it.frame != nil {
		it.t.fx.Unpin(it.frame, false)
		it.frame = nil
	}
	it.done = true
}
