package sqlmini

import (
	"context"
	"sync/atomic"

	"sqlarray/internal/engine"
)

// This file implements the batch-at-a-time executor. It is the default
// execution mode; the row-at-a-time operators in operators.go remain
// available via ExecOptions.RowPipeline and as the comparison baseline.
//
// Operators exchange a *Batch — a resizable column-major chunk of up to
// ExecOptions.BatchSize rows — through
//
//	nextBatch(b *Batch) (int, error)
//
// The consumer owns the Batch and passes it down the tree; the scan fills
// it directly from B+tree leaf runs, filters compact it in place through
// a selection vector, and the aggregate drains whole batches into its
// accumulators. A batch's contents are valid until the next nextBatch or
// close call on the producer, except for Batch.out rows, which the
// projection carves from a fresh slab per batch and are therefore safe
// to retain indefinitely (that is what Rows hands to callers).
//
// Limits propagate *down* the tree: batchLimitOp clips b.cap before
// delegating, so a TOP 3 under a 1024-row batch still reads only the
// first leaf instead of overfetching a full batch.

// defaultBatchSize is the row capacity of a pipeline batch when
// ExecOptions.BatchSize is zero. ~1024 rows keeps a batch of a few
// float columns well inside L2 while amortizing per-batch overheads.
const defaultBatchSize = 1024

// arenaChunk is the allocation granularity of a batch's binary arena.
const arenaChunk = 64 << 10

// Batch is a column-major chunk of rows flowing between batch operators.
type Batch struct {
	keys []int64          // clustered keys of the live rows, [0:n)
	cols [][]engine.Value // per schema column; nil for columns the plan never reads
	n    int              // live row count
	cap  int              // max rows the producer may fill this round

	// aggVals carries aggregate results once batchAggOp (or the parallel
	// variant) has collapsed the stream into its single output row.
	aggVals []engine.Value

	// out is the projected output, one safe-to-retain row per live row,
	// carved from a fresh slab each batch by batchProjectOp.
	out [][]engine.Value

	// arena backs binary values copied off pinned leaf pages during the
	// scan fill. It is recycled whenever the batch is emptied; values
	// survive a compaction because compaction only moves Value headers.
	arena []byte

	// pins owns the zero-copy blob views MAX-column derefs (cMaxCol)
	// acquire while expressions evaluate over this batch: the resolved
	// payload bytes alias pinned chunk pages, so the pins must live as
	// long as the batch's values do. They are released whenever the
	// batch is recycled for the next fill and when the owning operator
	// closes.
	pins engine.BlobPins
}

// newBatch allocates a batch for a table with ncols schema columns.
// Column slices are allocated lazily by the scan (only needed columns).
func newBatch(ncols int) *Batch {
	return &Batch{cols: make([][]engine.Value, ncols)}
}

// reset empties the batch and sets the fill capacity for the next round.
// Previously returned out rows stay valid (they own their slab); column
// data and arena contents are recycled.
func (b *Batch) reset(capRows int) {
	b.n = 0
	b.cap = capRows
	b.aggVals = nil
	b.arena = b.arena[:0]
	b.pins.Release()
	if cap(b.keys) < capRows {
		b.keys = make([]int64, capRows)
	}
	b.keys = b.keys[:capRows]
}

// recycle empties the batch between fills within one operator call:
// live rows are dropped, the arena is rewound and any zero-copy blob
// pins are released. Capacity and column slices are kept.
func (b *Batch) recycle() {
	b.n = 0
	b.arena = b.arena[:0]
	b.pins.Release()
}

// pinSet exposes the batch's pin set to expression nodes resolving MAX
// column refs zero-copy.
func (b *Batch) pinSet() *engine.BlobPins { return &b.pins }

// ensureCol makes sure column ci can hold cap rows, returning the slice.
func (b *Batch) ensureCol(ci int) []engine.Value {
	if cap(b.cols[ci]) < b.cap {
		b.cols[ci] = make([]engine.Value, b.cap)
	}
	b.cols[ci] = b.cols[ci][:b.cap]
	return b.cols[ci]
}

// copyBytes copies src into the batch arena and returns the stable copy.
// Growing the arena allocates a new chunk; earlier values keep the old
// chunk alive through their own slices, so they remain valid.
func (b *Batch) copyBytes(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	if len(b.arena)+len(src) > cap(b.arena) {
		size := arenaChunk
		if len(src) > size {
			size = len(src)
		}
		b.arena = make([]byte, 0, size)
	}
	off := len(b.arena)
	b.arena = b.arena[:off+len(src)]
	dst := b.arena[off : off+len(src) : off+len(src)]
	copy(dst, src)
	return dst
}

// compact keeps only the rows named by the selection vector sel (ascending
// row indices), moving survivors to the front of every live column in
// place, and returns the new row count.
func (b *Batch) compact(sel []int) int {
	for j, i := range sel {
		b.keys[j] = b.keys[i]
	}
	for ci := range b.cols {
		col := b.cols[ci]
		if col == nil {
			continue
		}
		for j, i := range sel {
			col[j] = col[i]
		}
	}
	b.n = len(sel)
	return b.n
}

// batchOperator is the batch-at-a-time executor protocol. nextBatch fills
// b with up to b.cap rows and returns how many were produced; 0 with a
// nil error means end of stream. open and close follow the row operator
// contract (close must be idempotent).
type batchOperator interface {
	open() error
	nextBatch(b *Batch) (int, error)
	close() error
}

// ---- scan ---------------------------------------------------------------

// batchScanOp fills batches straight from the clustered index cursor,
// decoding only the columns the plan references (need) and copying binary
// values off the pinned page into the batch arena.
type batchScanOp struct {
	tbl    *engine.Table
	snap   *engine.Snapshot
	qctx   context.Context
	lo, hi int64
	need   []bool
	cur    *engine.Cursor
}

func (s *batchScanOp) open() error {
	cur, err := s.tbl.CursorRangeAt(s.snap, s.lo, s.hi)
	if err != nil {
		return err
	}
	s.cur = cur
	return nil
}

func (s *batchScanOp) nextBatch(b *Batch) (int, error) {
	if s.cur == nil {
		return 0, nil
	}
	if err := pollCancel(s.qctx); err != nil {
		return 0, err
	}
	return fillFromCursor(s.cur, b, s.need)
}

func (s *batchScanOp) close() error {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	return nil
}

// fillFromCursor fills the empty batch b with up to b.cap rows from cur,
// decoding the needed columns leaf run by leaf run and copying binary
// values into the batch arena. Shared by the serial scan and the
// parallel workers.
func fillFromCursor(cur *engine.Cursor, b *Batch, need []bool) (int, error) {
	for ci, use := range need {
		if use {
			b.ensureCol(ci)
		}
	}
	n, err := cur.FillColumns(b.cap, need, b.keys, b.cols, b.copyBytes)
	b.n = n
	return n, err
}

// ---- filter -------------------------------------------------------------

// batchFilterOp evaluates the residual predicate over a whole batch and
// compacts the survivors in place through a selection vector. Empty
// batches are refilled internally so consumers never see a zero-row
// batch before end of stream.
type batchFilterOp struct {
	child batchOperator
	qctx  context.Context
	pred  compiled
	sel   []int
}

func (f *batchFilterOp) open() error { return f.child.open() }

func (f *batchFilterOp) nextBatch(b *Batch) (int, error) {
	for {
		if err := pollCancel(f.qctx); err != nil {
			return 0, err
		}
		n, err := f.child.nextBatch(b)
		if n == 0 || err != nil {
			return 0, err
		}
		n, err = filterBatch(f.pred, b, n, &f.sel)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			return n, nil
		}
		// Everything filtered out: recycle the batch and pull more rows.
		b.recycle()
	}
}

func (f *batchFilterOp) close() error { return f.child.close() }

// filterBatch evaluates pred over rows [0, n) of b and compacts the
// survivors to the front in place, returning the surviving row count.
// sel is the caller's reusable selection-vector scratch. Shared by the
// serial filter operator and the parallel aggregate workers so filter
// semantics cannot diverge between the two paths.
func filterBatch(pred compiled, b *Batch, n int, selScratch *[]int) (int, error) {
	vals, err := pred.evalBatch(b, n)
	if err != nil {
		return 0, err
	}
	if cap(*selScratch) < n {
		*selScratch = make([]int, 0, n)
	}
	sel := (*selScratch)[:0]
	for i := 0; i < n; i++ {
		if truthy(vals[i]) {
			sel = append(sel, i)
		}
	}
	*selScratch = sel
	if len(sel) == n {
		return n, nil
	}
	return b.compact(sel), nil
}

// ---- aggregate ----------------------------------------------------------

// batchAggOp drains its child batch-at-a-time into the accumulators and
// then emits a single-row batch carrying the aggregate results.
type batchAggOp struct {
	child batchOperator
	qctx  context.Context
	accs  []*accumulator
	done  bool
}

func (a *batchAggOp) open() error { return a.child.open() }

func (a *batchAggOp) nextBatch(b *Batch) (int, error) {
	if a.done {
		return 0, nil
	}
	a.done = true
	for {
		if err := pollCancel(a.qctx); err != nil {
			return 0, err
		}
		n, err := a.child.nextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		for _, acc := range a.accs {
			if err := acc.addBatch(b, n); err != nil {
				return 0, err
			}
		}
		b.recycle()
	}
	// Release the scan before emitting: the aggregate row references no
	// page memory.
	if err := a.child.close(); err != nil {
		return 0, err
	}
	b.n = 1
	b.aggVals = make([]engine.Value, len(a.accs))
	for i, acc := range a.accs {
		b.aggVals[i] = acc.result()
	}
	return 1, nil
}

func (a *batchAggOp) close() error { return a.child.close() }

// ---- parallel aggregate scan -------------------------------------------

// batchParallelAggOp is the batch counterpart of parallelAggOp: the key
// space is partitioned into contiguous ranges, each worker scans its
// range batch-at-a-time into private accumulators (filling, filtering and
// accumulating whole batches), and the partials merge in partition order.
type batchParallelAggOp struct {
	tbl       *engine.Table
	snap      *engine.Snapshot // shared read view; safe for concurrent workers
	qctx      context.Context
	lo, hi    int64
	workers   int
	batchSize int
	need      []bool
	newWorker func() (workerState, error)
	accs      []*accumulator // merge target (the main plan's accumulators)
	done      bool
}

func (p *batchParallelAggOp) open() error { return nil }

func (p *batchParallelAggOp) nextBatch(b *Batch) (int, error) {
	if p.done {
		return 0, nil
	}
	p.done = true

	if err := runPartitions(p.qctx, p.lo, p.hi, p.workers, p.newWorker, p.scanPartition, p.accs); err != nil {
		return 0, err
	}
	b.n = 1
	b.aggVals = make([]engine.Value, len(p.accs))
	for i, acc := range p.accs {
		b.aggVals[i] = acc.result()
	}
	return 1, nil
}

// scanPartition runs one worker's batch fill-filter-accumulate loop over
// [lo, hi]. stop is a cooperative abort flag set when any worker fails.
func (p *batchParallelAggOp) scanPartition(st *workerState, lo, hi int64, stop *atomic.Bool) error {
	fail := func(err error) error {
		stop.Store(true)
		return err
	}
	cur, err := p.tbl.CursorRangeAt(p.snap, lo, hi)
	if err != nil {
		return fail(err)
	}
	defer cur.Close()
	b := newBatch(len(p.need))
	// The worker's private batch may hold zero-copy blob pins from the
	// last fill; release them however the partition scan exits.
	defer b.pins.Release()
	var sel []int
	for {
		if stop.Load() {
			return nil
		}
		b.reset(p.batchSize)
		n, err := fillFromCursor(cur, b, p.need)
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			return nil
		}
		if st.pred != nil {
			if n, err = filterBatch(st.pred, b, n, &sel); err != nil {
				return fail(err)
			}
			if n == 0 {
				continue
			}
		}
		for _, acc := range st.accs {
			if err := acc.addBatch(b, n); err != nil {
				return fail(err)
			}
		}
	}
}

func (p *batchParallelAggOp) close() error { return nil }

// partitionSpans splits the inclusive key range [lo, hi] into up to
// workers contiguous sub-ranges covering it exactly. The arithmetic is
// wrap-safe across the full int64 span.
func partitionSpans(lo, hi int64, workers int) [][2]int64 {
	w := workers
	span := uint64(hi) - uint64(lo) // key count - 1; wrap-safe
	if span != ^uint64(0) && span+1 < uint64(w) {
		w = int(span + 1)
	}
	if w < 1 {
		w = 1
	}
	// Ceiling division so the remainder spreads across workers instead of
	// all landing on the last one.
	step := span / uint64(w)
	if span%uint64(w) != 0 {
		step++
	}
	if step == 0 {
		step = 1
	}
	spans := make([][2]int64, 0, w)
	for i := 0; i < w; i++ {
		offLo := step * uint64(i)
		if offLo > span {
			break // earlier partitions already cover everything
		}
		offHi := offLo + step - 1
		if offHi < offLo || offHi > span || i == w-1 {
			offHi = span
		}
		spans = append(spans, [2]int64{int64(uint64(lo) + offLo), int64(uint64(lo) + offHi)})
	}
	return spans
}

// ---- project ------------------------------------------------------------

// batchProjectOp evaluates the SELECT items over the batch and carves the
// output rows from a fresh slab, so every row handed upward is safe to
// retain after the batch is recycled. Binary values are copied off the
// batch arena (or the pinned page they still alias) for the same reason.
type batchProjectOp struct {
	child batchOperator
	items []compiled
}

func (p *batchProjectOp) open() error { return p.child.open() }

func (p *batchProjectOp) nextBatch(b *Batch) (int, error) {
	n, err := p.child.nextBatch(b)
	if n == 0 || err != nil {
		return 0, err
	}
	ncols := len(p.items)
	slab := make([]engine.Value, n*ncols)
	if cap(b.out) < n {
		b.out = make([][]engine.Value, n)
	}
	b.out = b.out[:n]
	for ci, it := range p.items {
		vals, err := it.evalBatch(b, n)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			v := vals[i]
			if v.Kind == engine.ColVarBinary || v.Kind == engine.ColVarBinaryMax {
				v.B = append([]byte(nil), v.B...)
			}
			slab[i*ncols+ci] = v
		}
	}
	for i := 0; i < n; i++ {
		b.out[i] = slab[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	return n, nil
}

func (p *batchProjectOp) close() error { return p.child.close() }

// ---- limit --------------------------------------------------------------

// batchLimitOp stops the pipeline after n rows and closes its child the
// moment the limit is reached to release page pins early. When clip is
// set (every operator below preserves row counts, i.e. scan→project
// with no residual filter) it also pushes the remaining budget down by
// clipping b.cap before delegating, so a TOP 3 reads one leaf instead
// of overfetching a full batch. Below a filter the clip would shrink
// the scan's batches to the output budget and erase the vectorization
// win, so the filter scans full batches and the limit truncates the
// surplus here instead.
type batchLimitOp struct {
	child batchOperator
	n     int64
	seen  int64
	clip  bool
}

func (l *batchLimitOp) open() error { return l.child.open() }

func (l *batchLimitOp) nextBatch(b *Batch) (int, error) {
	rem := l.n - l.seen
	if rem <= 0 {
		return 0, nil
	}
	if l.clip && int64(b.cap) > rem {
		b.cap = int(rem)
		b.keys = b.keys[:b.cap]
	}
	n, err := l.child.nextBatch(b)
	if err != nil {
		return 0, err
	}
	if int64(n) > rem {
		n = int(rem)
		b.n = n
		b.out = b.out[:n]
	}
	l.seen += int64(n)
	if l.seen >= l.n {
		if err := l.child.close(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (l *batchLimitOp) close() error { return l.child.close() }

// ---- row adapter ---------------------------------------------------------

// batchDrainOp adapts a batch pipeline to the row-at-a-time operator
// interface, so Rows (and every existing caller of the streaming API)
// is oblivious to the execution mode: it drains one batch at a time and
// yields the projected rows individually.
type batchDrainOp struct {
	root      batchOperator
	qctx      context.Context
	batchSize int
	b         *Batch
	i, n      int
	done      bool
	ctx       rowCtx
}

func (d *batchDrainOp) open() error { return d.root.open() }

func (d *batchDrainOp) next() (*rowCtx, error) {
	for d.i >= d.n {
		if d.done {
			return nil, nil
		}
		if err := pollCancel(d.qctx); err != nil {
			return nil, err
		}
		d.b.reset(d.batchSize)
		n, err := d.root.nextBatch(d.b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			d.done = true
			return nil, nil
		}
		d.i, d.n = 0, n
	}
	d.ctx.out = d.b.out[d.i]
	d.i++
	return &d.ctx, nil
}

func (d *batchDrainOp) close() error {
	// The drain owns the pipeline's batch: release any zero-copy blob
	// pins its current contents hold before (idempotently) closing the
	// operator tree, so a Rows.Close leaves PinnedFrames at zero.
	d.b.pins.Release()
	return d.root.close()
}
