package sqlmini

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
)

// A bad leaf slot is corruption (leaves are dense), so a scan over it
// must fail instead of skipping the row: COUNT(*) used to come back one
// short when a slot pointed outside its page. COUNT(*) reads no record
// bytes, only the slot directory, so every kind of bad slot is tried:
// one pointing outside the page, a dead one and ones too short to hold
// a key.
func TestCountStarOverCorruptLeafSlotFails(t *testing.T) {
	type corruption struct {
		name    string
		off, ln int // new slot entry; off -1 keeps the slot's own offset
		want    error
	}
	cases := []corruption{
		{"outside-page", 8176, 256, pages.ErrBadPage},
		{"dead", -1, 0, pages.ErrBadSlot},
	}
	for ln := 1; ln < 8; ln++ {
		cases = append(cases, corruption{fmt.Sprintf("short-%d", ln), -1, ln, pages.ErrBadPage})
	}
	const rows, bad = 40, 20
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, err := engine.Open(engine.Options{PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			schema, err := engine.NewSchema(engine.Column{Name: "id", Type: engine.ColInt64},
				engine.Column{Name: "x", Type: engine.ColFloat64})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable("t", schema)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := tbl.Insert([]engine.Value{engine.IntValue(int64(i)), engine.FloatValue(1)}); err != nil {
					t.Fatal(err)
				}
			}
			// The table's one leaf is the only data page holding all the rows.
			bp := db.Pool()
			corrupted := false
			for id := pages.PageID(1); int(id) < bp.Disk().NumPages() && !corrupted; id++ {
				f, err := bp.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				if f.Page.Type() == pages.TypeData && f.Page.NumSlots() == rows {
					base := pages.PageSize - (bad+1)*4
					if c.off >= 0 {
						binary.LittleEndian.PutUint16(f.Page.Buf[base:], uint16(c.off))
					}
					binary.LittleEndian.PutUint16(f.Page.Buf[base+2:], uint16(c.ln))
					corrupted = true
				}
				bp.Unpin(f, false)
			}
			if !corrupted {
				t.Fatal("no leaf page found")
			}
			for _, opts := range []ExecOptions{
				{},
				{Parallelism: 2, ParallelThreshold: 1},
			} {
				res, err := RunWith(db, "SELECT COUNT(*) FROM t", opts)
				if !errors.Is(err, c.want) {
					t.Errorf("%+v: COUNT(*) = %v, %v; want %v", opts, res, err, c.want)
				}
			}
			// Streamed in small batches, the rows before the bad slot come
			// through and then the scan fails.
			r, err := QueryWith(db, "SELECT id FROM t", ExecOptions{BatchSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for r.Next() {
				n++
			}
			if n != bad || !errors.Is(r.Err(), c.want) {
				t.Errorf("SELECT id: %d rows then %v; want %d rows then %v", n, r.Err(), bad, c.want)
			}
			if err := r.Close(); err != nil {
				t.Error(err)
			}
			if got := bp.PinnedFrames(); got != 0 {
				t.Errorf("PinnedFrames after failed scans = %d", got)
			}
		})
	}
}
