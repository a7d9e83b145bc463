package sqlmini

import (
	"errors"
	"testing"

	"sqlarray/internal/engine"
	"sqlarray/internal/pages"
)

// A leaf slot pointing outside its page is corruption (leaves are
// dense), so a scan over it must fail instead of skipping the row:
// COUNT(*) used to come back one short.
func TestCountStarOverCorruptLeafSlotFails(t *testing.T) {
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
	const rows = 40
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
			base := pages.PageSize - (20+1)*4 // slot 20: offset 8176, length 256
			f.Page.Buf[base], f.Page.Buf[base+1] = 0xF0, 0x1F
			f.Page.Buf[base+2], f.Page.Buf[base+3] = 0x00, 0x01
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
		{RowPipeline: true},
	} {
		res, err := RunWith(db, "SELECT COUNT(*) FROM t", opts)
		if !errors.Is(err, pages.ErrBadPage) {
			t.Errorf("%+v: COUNT(*) = %v, %v; want ErrBadPage", opts, res, err)
		}
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after failed scans = %d", got)
	}
}
