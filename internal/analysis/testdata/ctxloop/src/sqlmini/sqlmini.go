// Package sqlmini mocks the executor's operator protocol; ctxloop only
// fires inside packages named sqlmini.
package sqlmini

import (
	"context"
	"sync/atomic"

	"btree"
	"engine"
)

type rowCtx struct{}

type operator interface {
	next() (*rowCtx, error)
}

func pollCancel(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

type filterOp struct {
	child operator
	ctx   context.Context
	stop  *atomic.Bool
}

// bad: drains the child without ever polling cancellation.
func (f *filterOp) drainNoPoll() (*rowCtx, error) {
	for { // want `advances a row/batch stream without polling cancellation`
		c, err := f.child.next()
		if c == nil || err != nil {
			return nil, err
		}
	}
}

// good: the pollCancel helper is checked each iteration.
func (f *filterOp) drainHelper() (*rowCtx, error) {
	for {
		if err := pollCancel(f.ctx); err != nil {
			return nil, err
		}
		c, err := f.child.next()
		if c == nil || err != nil {
			return nil, err
		}
	}
}

// good: direct ctx.Err poll.
func (f *filterOp) drainCtxErr() (*rowCtx, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		c, err := f.child.next()
		if c == nil || err != nil {
			return nil, err
		}
	}
}

// good: the parallel workers' stop flag counts as a poll.
func (f *filterOp) drainStopFlag() (*rowCtx, error) {
	for {
		if f.stop.Load() {
			return nil, nil
		}
		c, err := f.child.next()
		if c == nil || err != nil {
			return nil, err
		}
	}
}

// bad: a cursor walk with the advance in the loop condition.
func drainCursor(cur *engine.Cursor) int64 {
	var last int64
	for cur.Next() { // want `advances a row/batch stream without polling cancellation`
		last = cur.Key()
	}
	return last
}

// good: cursor walk polling ctx.
func drainCursorPolled(ctx context.Context, cur *engine.Cursor) (int64, error) {
	var last int64
	for cur.Next() {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		last = cur.Key()
	}
	return last, nil
}

// bad: a columnar batch fill loop that never polls.
func fillColumnsNoPoll(cur *engine.Cursor, need []bool, keys []int64, cols [][]engine.Value) int {
	total := 0
	for { // want `advances a row/batch stream without polling cancellation`
		n, err := cur.FillColumns(len(keys), need, keys, cols, nil)
		total += n
		if err != nil || n < len(keys) {
			return total
		}
	}
}

// good: the same fill loop checking the pollCancel helper.
func fillColumnsPolled(ctx context.Context, cur *engine.Cursor, need []bool, keys []int64, cols [][]engine.Value) (int, error) {
	total := 0
	for {
		if err := pollCancel(ctx); err != nil {
			return total, err
		}
		n, err := cur.FillColumns(len(keys), need, keys, cols, nil)
		total += n
		if err != nil || n < len(keys) {
			return total, err
		}
	}
}

// bad: walking B+tree leaf runs without a poll.
func leafRunsNoPoll(it *btree.Iterator) int {
	rows := 0
	for { // want `advances a row/batch stream without polling cancellation`
		leaf, from, to, err := it.LeafRun(1024)
		if leaf == nil || err != nil {
			return rows
		}
		rows += to - from
	}
}

// good: the leaf-run walk honoring the workers' stop flag.
func leafRunsStopFlag(it *btree.Iterator, stop *atomic.Bool) int {
	rows := 0
	for !stop.Load() {
		leaf, from, to, err := it.LeafRun(1024)
		if leaf == nil || err != nil {
			return rows
		}
		rows += to - from
	}
	return rows
}

// loops that advance nothing are not the analyzer's business.
func plainLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

func suppressedDrain(f *filterOp) (*rowCtx, error) {
	//lint:allow ctxloop bounded two-row drain in this fixture
	for {
		c, err := f.child.next()
		if c == nil || err != nil {
			return nil, err
		}
	}
}
