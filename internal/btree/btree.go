// Package btree implements the clustered B+tree that backs sqlarray
// engine tables: 64-bit keys mapping to variable-length row images,
// stored on 8 kB pages, with leaf pages chained for ordered scans —
// the "clustered index scan" access path of the paper's Table 1 queries.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sqlarray/internal/pages"
)

// Errors returned by the B-tree.
var (
	ErrNotFound  = errors.New("btree: key not found")
	ErrDuplicate = errors.New("btree: duplicate key")
	ErrTooBig    = errors.New("btree: value too large for a page")
)

// MaxValueSize is the largest value insertable (key + value must fit a
// page record).
const MaxValueSize = pages.MaxRecordSize - 8

// Tree is a clustered B+tree over a buffer pool. It is not safe for
// concurrent mutation; the engine serializes writers per table.
//
// Read descents go through fx, which is the pool itself for writer
// trees and a pages.Snapshot for frozen read views (see OpenFetch).
// Mutations always go through bp and are only legal on writer trees.
type Tree struct {
	bp   *pages.BufferPool
	fx   pages.Fetcher
	root pages.PageID
	// height counts levels (1 = root is a leaf).
	height int
	count  int
}

// internal node records: 8-byte separator key + 4-byte child page id.
// Record i covers keys >= key_i (record 0's key is the subtree minimum).
const internalRecSize = 12

// New creates an empty tree whose pages are allocated from bp.
func New(bp *pages.BufferPool) (*Tree, error) {
	f, err := bp.NewPage(pages.TypeData)
	if err != nil {
		return nil, err
	}
	root := f.Page.ID
	bp.Unpin(f, true)
	return &Tree{bp: bp, fx: bp, root: root, height: 1}, nil
}

// Open attaches to an existing tree given its root page. The caller
// supplies the persisted height and count (the engine catalog stores
// them).
func Open(bp *pages.BufferPool, root pages.PageID, height, count int) *Tree {
	return &Tree{bp: bp, fx: bp, root: root, height: height, count: count}
}

// OpenFetch attaches a read-only tree whose page fetches resolve
// through fx — typically a pages.Snapshot, giving a scan a frozen view
// of the tree as of a commit. Mutating a tree opened this way is a
// programming error (there is no pool to allocate from).
func OpenFetch(fx pages.Fetcher, root pages.PageID, height, count int) *Tree {
	return &Tree{fx: fx, root: root, height: height, count: count}
}

// Root returns the current root page id (it changes on root splits).
func (t *Tree) Root() pages.PageID { return t.root }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.count }

func leafKey(rec []byte) int64 {
	return int64(binary.LittleEndian.Uint64(rec))
}

func encodeLeafRec(key int64, val []byte) []byte {
	rec := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(rec, uint64(key))
	copy(rec[8:], val)
	return rec
}

func encodeInternalRec(key int64, child pages.PageID) []byte {
	var rec [internalRecSize]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(key))
	binary.LittleEndian.PutUint32(rec[8:], uint32(child))
	return rec[:]
}

func decodeInternalRec(rec []byte) (int64, pages.PageID) {
	return int64(binary.LittleEndian.Uint64(rec)),
		pages.PageID(binary.LittleEndian.Uint32(rec[8:]))
}

// searchSlot finds the position of key in a node. For leaves it returns
// (slot, true) on an exact match or (insertPos, false). For internal
// nodes it returns the child slot to descend into.
func searchSlot(p *pages.Page, key int64) (int, bool) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		rec, err := p.Record(mid)
		if err != nil || len(rec) < 8 {
			// Dense nodes never have dead or keyless slots; treat as not
			// found (a scan from here fails on the slot itself).
			hi = mid
			continue
		}
		k := leafKey(rec) // both node kinds store the key first
		switch {
		case k == key:
			return mid, true
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childFor picks the internal-node slot whose subtree covers key.
func childFor(p *pages.Page, key int64) int {
	pos, exact := searchSlot(p, key)
	if exact {
		return pos
	}
	if pos == 0 {
		return 0
	}
	return pos - 1
}

// Get returns the value stored for key. The returned slice is a copy.
func (t *Tree) Get(key int64) ([]byte, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return nil, err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.fx.Unpin(f, false)
			return nil, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	f, err := t.fx.Fetch(id)
	if err != nil {
		return nil, err
	}
	defer t.fx.Unpin(f, false)
	slot, ok := searchSlot(&f.Page, key)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	rec, err := f.Page.Record(slot)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), rec[8:]...), nil
}

// splitResult carries a completed child split up the recursion. retry
// reports that the leaf split without taking the new record (no two-way
// split had room for it); put descends again once the separator is
// posted.
type splitResult struct {
	split  bool
	retry  bool
	sepKey int64
	right  pages.PageID
}

// Insert stores key -> val, failing on duplicates.
func (t *Tree) Insert(key int64, val []byte) error {
	return t.put(key, val, false)
}

// Put stores key -> val, overwriting an existing value.
func (t *Tree) Put(key int64, val []byte) error {
	return t.put(key, val, true)
}

func (t *Tree) put(key int64, val []byte, overwrite bool) error {
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes > %d", ErrTooBig, len(val), MaxValueSize)
	}
	for {
		res, err := t.insertInto(t.root, t.height, key, val, overwrite)
		if err != nil {
			return err
		}
		if res.split {
			if err := t.growRoot(res); err != nil {
				return err
			}
		}
		if !res.retry {
			return nil
		}
	}
}

// growRoot puts a new root above a split old one.
func (t *Tree) growRoot(res splitResult) error {
	f, err := t.bp.NewPage(pages.TypeIndex)
	if err != nil {
		return err
	}
	// Left entry uses the old root's minimum; any key <= sep works,
	// we use math.MinInt64 semantics via the smallest stored key: the
	// descent only compares >=, so storing the separator of the left
	// subtree as "minimum possible" is simplest.
	if err := f.Page.InsertAt(0, encodeInternalRec(minInt64, t.root)); err != nil {
		t.bp.Unpin(f, true)
		return err
	}
	if err := f.Page.InsertAt(1, encodeInternalRec(res.sepKey, res.right)); err != nil {
		t.bp.Unpin(f, true)
		return err
	}
	t.root = f.Page.ID
	t.height++
	t.bp.Unpin(f, true)
	return nil
}

const minInt64 = -1 << 63

func (t *Tree) insertInto(id pages.PageID, level int, key int64, val []byte, overwrite bool) (splitResult, error) {
	if level == 1 {
		f, err := t.bp.FetchForWrite(id)
		if err != nil {
			return splitResult{}, err
		}
		res, err := t.insertLeaf(f, key, val, overwrite)
		t.bp.Unpin(f, true)
		return res, err
	}
	f, err := t.bp.Fetch(id)
	if err != nil {
		return splitResult{}, err
	}
	slot := childFor(&f.Page, key)
	rec, err := f.Page.Record(slot)
	if err != nil {
		t.bp.Unpin(f, false)
		return splitResult{}, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
	}
	_, child := decodeInternalRec(rec)
	t.bp.Unpin(f, false) // release before recursing; re-fetch if child split

	res, err := t.insertInto(child, level-1, key, val, overwrite)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// Insert the new separator into this node.
	f, err = t.bp.FetchForWrite(id)
	if err != nil {
		return splitResult{}, err
	}
	pos, _ := searchSlot(&f.Page, res.sepKey)
	entry := encodeInternalRec(res.sepKey, res.right)
	if err := f.Page.InsertAt(pos, entry); err == nil {
		t.bp.Unpin(f, true)
		return splitResult{retry: res.retry}, nil
	} else if !errors.Is(err, pages.ErrPageFull) {
		t.bp.Unpin(f, false)
		return splitResult{}, err
	}
	// Split this internal node.
	out, err := t.splitNode(f, pages.TypeIndex, f.Page.NumSlots()/2)
	if err != nil {
		t.bp.Unpin(f, true)
		return splitResult{}, err
	}
	// Retry the separator insert into the proper half.
	target := f
	var targetIsRight bool
	if res.sepKey >= out.sepKey {
		targetIsRight = true
	}
	if targetIsRight {
		rf, err := t.bp.FetchForWrite(out.right)
		if err != nil {
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
		pos, _ := searchSlot(&rf.Page, res.sepKey)
		if err := rf.Page.InsertAt(pos, entry); err != nil {
			t.bp.Unpin(rf, true)
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
		t.bp.Unpin(rf, true)
	} else {
		pos, _ := searchSlot(&target.Page, res.sepKey)
		if err := target.Page.InsertAt(pos, entry); err != nil {
			t.bp.Unpin(f, true)
			return splitResult{}, err
		}
	}
	t.bp.Unpin(f, true)
	out.retry = res.retry
	return out, nil
}

func (t *Tree) insertLeaf(f *pages.Frame, key int64, val []byte, overwrite bool) (splitResult, error) {
	slot, exact := searchSlot(&f.Page, key)
	if exact {
		if !overwrite {
			return splitResult{}, fmt.Errorf("%w: %d", ErrDuplicate, key)
		}
		rec := encodeLeafRec(key, val)
		if err := f.Page.Update(slot, rec); err == nil {
			return splitResult{}, nil
		} else if !errors.Is(err, pages.ErrPageFull) {
			return splitResult{}, err
		}
		// No room to grow in place: compact and retry once.
		f.Page.Compact()
		if err := f.Page.Update(slot, rec); err == nil {
			return splitResult{}, nil
		}
		// Remove + reinsert through the split path.
		if err := f.Page.RemoveAt(slot); err != nil {
			return splitResult{}, err
		}
		t.count--
	}
	rec := encodeLeafRec(key, val)
	pos, _ := searchSlot(&f.Page, key)
	if err := f.Page.InsertAt(pos, rec); err == nil {
		t.count++
		return splitResult{}, nil
	} else if !errors.Is(err, pages.ErrPageFull) {
		return splitResult{}, err
	}
	f.Page.Compact()
	if err := f.Page.InsertAt(pos, rec); err == nil {
		t.count++
		return splitResult{}, nil
	}
	s, err := leafSplitPoint(&f.Page, pos, len(rec))
	if err != nil {
		return splitResult{}, err
	}
	if s < 0 {
		// No two-way split has room for the record (a near-page-sized
		// record between two well-filled runs): split between its
		// neighbours without it, and let put descend again to a leaf
		// that now has room on one side.
		out, err := t.splitNode(f, pages.TypeData, pos)
		out.retry = true
		return out, err
	}
	// Sequence elements [s, n] go right; the record is element pos.
	right, at := pos >= s, s
	if !right {
		at = s - 1
	}
	out, err := t.splitNode(f, pages.TypeData, at)
	if err != nil {
		return splitResult{}, err
	}
	if right {
		rf, err := t.bp.FetchForWrite(out.right)
		if err != nil {
			return splitResult{}, err
		}
		err = rf.Page.InsertAt(pos-at, rec)
		t.bp.Unpin(rf, true)
		if err != nil {
			return splitResult{}, err
		}
		if pos == at { // the new record heads the right page
			out.sepKey = key
		}
	} else if err := f.Page.InsertAt(pos, rec); err != nil {
		return splitResult{}, err
	}
	t.count++
	return out, nil
}

// slotCost is what one record costs a page beyond its bytes: its
// slot-directory entry.
const slotCost = pages.PageSize - pages.HeaderSize - pages.MaxRecordSize

// leafSplitPoint chooses where a full leaf splits to admit a record of
// recLen bytes at slot pos. Think of the leaf's n records with the new
// one in place at pos as one sequence of n+1; it returns the cut s
// that keeps elements [0, s) on the left page, or -1 when no cut leaves
// both sides within a page. The count midpoint (existing records
// [n/2, n) move right) is kept whenever the record fits the half it
// falls in, so leaves of equal-size rows split exactly as they always
// have; otherwise the cut with room on both sides nearest the byte
// midpoint wins.
func leafSplitPoint(p *pages.Page, pos, recLen int) (int, error) {
	n := p.NumSlots()
	// cum[j] is the page space the first j sequence elements take.
	cum := make([]int, n+2)
	for j := 0; j <= n; j++ {
		size := recLen
		if j != pos {
			i := j
			if j > pos {
				i--
			}
			rec, err := p.Record(i)
			if err != nil {
				return 0, err
			}
			size = len(rec)
		}
		cum[j+1] = cum[j] + size + slotCost
	}
	total := cum[n+1]
	fits := func(s int) bool {
		const room = pages.PageSize - pages.HeaderSize
		return cum[s] <= room && total-cum[s] <= room
	}
	s := n / 2
	if pos <= s {
		s++ // the record stays left of the moved half
	}
	if fits(s) {
		return s, nil
	}
	best := -1
	for s := 1; s <= n; s++ {
		if fits(s) && (best < 0 || max(cum[s], total-cum[s]) < max(cum[best], total-cum[best])) {
			best = s
		}
	}
	return best, nil
}

// splitNode moves f's records [at, n) into a fresh page and returns
// the separator, the first moved key (a leaf split that moves nothing
// leaves it to the caller). For leaves it maintains the sibling chain.
func (t *Tree) splitNode(f *pages.Frame, typ pages.PageType, at int) (splitResult, error) {
	rf, err := t.bp.NewPage(typ)
	if err != nil {
		return splitResult{}, err
	}
	n := f.Page.NumSlots()
	var sepKey int64
	if at < n {
		sepRec, err := f.Page.Record(at)
		if err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
		sepKey = leafKey(sepRec)
	}
	// Copy the records from at on to the right page.
	for i := at; i < n; i++ {
		rec, err := f.Page.Record(i)
		if err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
		if _, err := rf.Page.Insert(rec); err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
	}
	for i := n - 1; i >= at; i-- {
		if err := f.Page.RemoveAt(i); err != nil {
			t.bp.Unpin(rf, true)
			return splitResult{}, err
		}
	}
	f.Page.Compact()
	if typ == pages.TypeData {
		rf.Page.SetNext(f.Page.Next())
		rf.Page.SetPrev(f.Page.ID)
		if nxt := f.Page.Next(); nxt != pages.InvalidPageID {
			nf, err := t.bp.FetchForWrite(nxt)
			if err != nil {
				t.bp.Unpin(rf, true)
				return splitResult{}, err
			}
			nf.Page.SetPrev(rf.Page.ID)
			t.bp.Unpin(nf, true)
		}
		f.Page.SetNext(rf.Page.ID)
	}
	right := rf.Page.ID
	t.bp.Unpin(rf, true)
	return splitResult{split: true, sepKey: sepKey, right: right}, nil
}

// Delete removes key, returning ErrNotFound if absent. Nodes are not
// rebalanced (lazy deletion, like many production engines under light
// delete loads); space is reclaimed when pages are compacted on split.
func (t *Tree) Delete(key int64) error {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.bp.Fetch(id)
		if err != nil {
			return err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.bp.Unpin(f, false)
			return fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.bp.Unpin(f, false)
		id = child
	}
	f, err := t.bp.FetchForWrite(id)
	if err != nil {
		return err
	}
	slot, ok := searchSlot(&f.Page, key)
	if !ok {
		t.bp.Unpin(f, false)
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	err = f.Page.RemoveAt(slot)
	t.bp.Unpin(f, true)
	if err == nil {
		t.count--
	}
	return err
}

// LeafPageCount walks the leaf chain and returns the number of leaf
// pages — the clustered index's data footprint.
func (t *Tree) LeafPageCount() (int, error) {
	id, err := t.leftmostLeaf()
	if err != nil {
		return 0, err
	}
	n := 0
	for id != pages.InvalidPageID {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		n++
		next := f.Page.Next()
		t.fx.Unpin(f, false)
		id = next
	}
	return n, nil
}

// leftmostLeaf descends to the first leaf page.
func (t *Tree) leftmostLeaf() (pages.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		rec, err := f.Page.Record(0)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, err
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	return id, nil
}

// Bounds returns the smallest and largest keys currently stored. ok is
// false when the tree is empty. The parallel scan planner uses this to
// partition the key space across workers.
func (t *Tree) Bounds() (min, max int64, ok bool, err error) {
	it, err := t.Scan()
	if err != nil {
		return 0, 0, false, err
	}
	if !it.Next() {
		err := it.Err()
		it.Close()
		return 0, 0, false, err
	}
	min = it.Key()
	it.Close()
	max, ok, err = t.maxKey()
	if err != nil || !ok {
		return 0, 0, false, err
	}
	return min, max, true, nil
}

// maxKey walks to the rightmost leaf (following the prev chain past any
// leaves emptied by lazy deletion) and returns its last live key.
func (t *Tree) maxKey() (int64, bool, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, false, err
		}
		n := f.Page.NumSlots()
		if n == 0 {
			t.fx.Unpin(f, false)
			return 0, false, fmt.Errorf("btree: empty internal node %d", id)
		}
		rec, err := f.Page.Record(n - 1)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, false, fmt.Errorf("btree: corrupt internal node %d: %w", id, err)
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	for id != pages.InvalidPageID {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, false, err
		}
		for slot := f.Page.NumSlots() - 1; slot >= 0; slot-- {
			key, _, err := LeafRecord(&f.Page, slot)
			if errors.Is(err, pages.ErrBadSlot) {
				continue // dead slot
			}
			t.fx.Unpin(f, false)
			return key, err == nil, err
		}
		prev := f.Page.Prev()
		t.fx.Unpin(f, false)
		id = prev
	}
	return 0, false, nil
}

// leafFor descends to the leaf page that would contain key.
func (t *Tree) leafFor(key int64) (pages.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		f, err := t.fx.Fetch(id)
		if err != nil {
			return 0, err
		}
		slot := childFor(&f.Page, key)
		rec, err := f.Page.Record(slot)
		if err != nil {
			t.fx.Unpin(f, false)
			return 0, err
		}
		_, child := decodeInternalRec(rec)
		t.fx.Unpin(f, false)
		id = child
	}
	return id, nil
}
