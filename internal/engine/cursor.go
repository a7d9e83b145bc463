package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"sqlarray/internal/blob"
	"sqlarray/internal/btree"
)

// Cursor streams a table's rows in clustered-key order without
// materializing them — the engine half of the Volcano executor. It wraps
// the B+tree leaf iterator and decodes rows lazily through a reused
// RowView:
//
//	cur, err := tbl.Cursor()
//	for cur.Next() {
//	    key, row := cur.Key(), cur.Row()
//	}
//	err = cur.Err()
//	cur.Close()
//
// Row (and any binary Values decoded from it) aliases the pinned leaf
// page and is only valid until the next call to Next or Close; copy to
// retain. Close must always be called: it releases the pinned page and
// the cursor's snapshot (when the cursor owns one — the convenience
// constructors acquire a snapshot per cursor; the ...At variants read
// through a caller-owned snapshot instead), and early termination
// (TOP n) would otherwise leak a pin and wedge DropCleanBuffers.
//
// Cursors never latch the table: the snapshot pins the committed state
// as of open, so concurrent DML commits do not block the scan and the
// scan does not block them.
type Cursor struct {
	it      *btree.Iterator
	schema  *Schema
	rv      RowView
	err     error // a failed fill's error; the scan is over
	release func()
}

// Cursor opens a streaming scan over the whole table.
func (t *Table) Cursor() (*Cursor, error) {
	return t.CursorRange(math.MinInt64, math.MaxInt64)
}

// CursorRange opens a streaming scan over keys in [lo, hi], inclusive,
// on a snapshot acquired for the cursor's lifetime. The underlying
// iterator stops (and unpins) as soon as it passes hi, so a key-range
// query touches only the root-to-leaf descent plus the pages the range
// spans.
func (t *Table) CursorRange(lo, hi int64) (*Cursor, error) {
	s := t.db.Snapshot()
	cur, err := t.CursorRangeAt(s, lo, hi)
	if err != nil {
		s.Release()
		return nil, err
	}
	cur.release = s.Release
	return cur, nil
}

// Next advances to the next row, returning false at the end of the range
// or on error (check Err).
func (c *Cursor) Next() bool {
	if c.err != nil || !c.it.Next() {
		return false
	}
	c.rv.reset(c.schema, c.it.Value())
	return true
}

// FillBatch advances the cursor through up to max rows, invoking fn for
// each one. It walks the scan leaf run by leaf run (btree LeafRun), so
// the per-row cost is the callback and the RowView decode, not a trip
// through the iterator. The RowView passed to fn is reused and aliases
// the pinned leaf page: fn must copy anything it keeps. It returns the
// number of rows consumed; fewer than max means the range is exhausted
// or the fill failed. A failure — fn's error or a corrupt record — ends
// the scan: the cursor releases its leaf and Err reports the error.
// FillBatch, FillColumns and Next may be interleaved freely; all advance
// the same scan position.
func (c *Cursor) FillBatch(max int, fn func(key int64, row *RowView) error) (int, error) {
	n := 0
	for n < max {
		leaf, from, to, err := c.it.LeafRun(max - n)
		if leaf == nil {
			return n, c.failed(err)
		}
		for i := from; i < to; i++ {
			key, raw, err := btree.LeafRecord(leaf, i)
			if err != nil {
				return n, c.failed(err)
			}
			c.rv.reset(c.schema, raw)
			if err := fn(key, &c.rv); err != nil {
				return n, c.failed(err)
			}
			n++
		}
	}
	return n, nil
}

// FillColumns is the columnar batch fill: it decodes up to max rows
// straight into cols[ci][n] for every column ci with need[ci] set, and
// returns the row count n. cols[ci] must hold at least max entries for
// the needed columns; columns not needed are left untouched and may be
// nil. Each row is decoded in one forward pass that stops at the last
// needed column, with the bounds and truncation checks RowView.Col
// makes; clustered keys are not decoded. When need selects no column
// (COUNT(*)), each leaf run is counted from its slot directory alone:
// every slot still gets the leaf-record checks, but no record byte is
// read. VARBINARY values and VARBINARY(MAX) refs are passed through
// copyBin while their leaf is pinned, and the value stores what copyBin
// returns. Fewer than max rows means the range is exhausted or the fill
// failed; a failure ends the scan as it does for FillBatch.
func (c *Cursor) FillColumns(max int, need []bool, cols [][]Value, copyBin func([]byte) []byte) (int, error) {
	columns := c.schema.Columns
	last := -1
	for ci, use := range need {
		if use {
			if ci >= len(columns) {
				return 0, fmt.Errorf("%w: index %d", ErrNoColumn, ci)
			}
			last = ci
		}
	}
	columns = columns[:last+1]
	// When every column through the last needed one is fixed-width, a row
	// without NULLs among them holds column ci at byte 9*ci+1 (a flag and
	// eight bytes per column). Such rows skip the forward pass.
	plan, fixed := make([]fixedCol, 0, len(columns)), true
	for ci, col := range columns {
		if col.Type != ColInt64 && col.Type != ColFloat64 {
			fixed = false
			break
		}
		if need[ci] {
			plan = append(plan, fixedCol{off: 9*ci + 1, typ: col.Type, dst: cols[ci][:max]})
		}
	}
	fixedLen := 9 * len(columns)
	n := 0
	for n < max {
		leaf, from, to, err := c.it.LeafRun(max - n)
		if leaf == nil {
			return n, c.failed(err)
		}
		if last < 0 {
			k, err := btree.CheckLeafSlots(leaf, from, to)
			n += k
			if err != nil {
				return n, c.failed(err)
			}
			continue
		}
		for i := from; i < to; i++ {
			raw, err := btree.LeafValue(leaf, i)
			if err != nil {
				return n, c.failed(err)
			}
			if !fixed || !fillFixed(raw, n, fixedLen, plan) {
				if err := fillRow(raw, n, columns, need, cols, copyBin); err != nil {
					return n, c.failed(err)
				}
			}
			n++
		}
	}
	return n, nil
}

// fixedCol is a needed column of FillColumns' fixed-offset plan.
type fixedCol struct {
	off int     // byte offset of the column's payload
	typ ColType // ColInt64 or ColFloat64
	dst []Value
}

// fillFixed decodes row n through the fixed-offset plan. It reports
// false, storing nothing, when the row is shorter than the plan's
// columns or has a NULL among them; fillRow then decodes it.
func fillFixed(raw []byte, n, fixedLen int, plan []fixedCol) bool {
	if len(raw) < fixedLen {
		return false
	}
	for off := 0; off < fixedLen; off += 9 {
		if raw[off] == 1 {
			return false
		}
	}
	for _, f := range plan {
		bits := binary.LittleEndian.Uint64(raw[f.off:])
		if f.typ == ColInt64 {
			f.dst[n] = Value{Kind: ColInt64, I: int64(bits)}
		} else {
			f.dst[n] = Value{Kind: ColFloat64, F: math.Float64frombits(bits)}
		}
	}
	return true
}

// fillRow decodes row n of a FillColumns call in one forward pass over
// columns (the schema prefix through the last needed column).
func fillRow(raw []byte, n int, columns []Column, need []bool, cols [][]Value, copyBin func([]byte) []byte) error {
	off := 0
	for ci, col := range columns {
		if off >= len(raw) {
			return fmt.Errorf("engine: row truncated at column %d", ci)
		}
		null := raw[off] == 1
		off++
		var v Value
		switch col.Type {
		case ColInt64, ColFloat64:
			if null {
				break
			}
			if off+8 > len(raw) {
				return fmt.Errorf("engine: row truncated in column %d", ci)
			}
			bits := binary.LittleEndian.Uint64(raw[off:])
			off += 8
			if col.Type == ColInt64 {
				v = Value{Kind: ColInt64, I: int64(bits)}
			} else {
				v = Value{Kind: ColFloat64, F: math.Float64frombits(bits)}
			}
		case ColVarBinary:
			if null {
				break
			}
			if off+2 > len(raw) {
				return fmt.Errorf("engine: row truncated in column %d", ci)
			}
			end := off + 2 + int(binary.LittleEndian.Uint16(raw[off:]))
			if end > len(raw) {
				return fmt.Errorf("engine: row truncated in column %d", ci)
			}
			if need[ci] {
				v = Value{Kind: ColVarBinary, B: copyBin(raw[off+2 : end])}
			}
			off = end
		case ColVarBinaryMax:
			if null {
				break
			}
			end := off + blob.RefSize
			if end > len(raw) {
				return fmt.Errorf("engine: row truncated in column %d", ci)
			}
			if need[ci] {
				v = Value{Kind: ColVarBinaryMax, B: copyBin(raw[off:end])}
			}
			off = end
		default:
			return fmt.Errorf("%w: column %d type %v", ErrTypeError, ci, col.Type)
		}
		if need[ci] {
			cols[ci][n] = v
		}
	}
	return nil
}

// failed ends the scan with err (when non-nil), releasing its leaf, and
// returns the error Err will report.
func (c *Cursor) failed(err error) error {
	if err != nil && c.err == nil {
		c.err = err
		c.it.Close()
	}
	return c.Err()
}

// Key returns the current row's clustered key.
func (c *Cursor) Key() int64 { return c.it.Key() }

// Row returns the current row view, valid until the next Next or Close.
func (c *Cursor) Row() *RowView { return &c.rv }

// Err returns the first error encountered while scanning.
func (c *Cursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.it.Err()
}

// Close releases the cursor's pinned page and its snapshot (when the
// cursor owns one). Safe to call twice.
func (c *Cursor) Close() {
	c.it.Close()
	if c.release != nil {
		c.release()
	}
}
