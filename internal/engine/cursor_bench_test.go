package engine

import (
	"testing"
	"time"

	"sqlarray/internal/pages"
)

// scalarTable builds a warm Tscalar-shaped table (id BIGINT plus five
// FLOAT columns, row i holding (i mod 1000)/1000 scaled per column) of
// n rows through the bulk loader, in a pool that holds all of it.
func scalarTable(tb testing.TB, n int) *Table {
	tb.Helper()
	db, err := Open(Options{Disk: pages.NewMemDisk(), PoolPages: 8192})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSchema(
		Column{Name: "id", Type: ColInt64},
		Column{Name: "v1", Type: ColFloat64},
		Column{Name: "v2", Type: ColFloat64},
		Column{Name: "v3", Type: ColFloat64},
		Column{Name: "v4", Type: ColFloat64},
		Column{Name: "v5", Type: ColFloat64},
	)
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable("Tscalar", s)
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		x := float64(i%1000) / 1000
		rows[i] = []Value{IntValue(int64(i)), FloatValue(x), FloatValue(2 * x),
			FloatValue(3 * x), FloatValue(4 * x), FloatValue(5 * x)}
	}
	if _, err := tbl.BulkLoad(NewValuesSource(rows), BulkOptions{}); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// BenchmarkCursorFill measures the engine half of a batch scan in ns per
// row: a full scan of a warm 100k-row Tscalar-shaped table summing v1 in
// 1024-row batches, once through FillBatch and a RowView per row and
// once through the columnar FillColumns; CountOnly is the COUNT(*)
// fill, FillColumns with no column needed.
func BenchmarkCursorFill(b *testing.B) {
	const rows, batch = 100_000, 1024
	tbl := scalarTable(b, rows)
	need, countOnly := []bool{false, true}, []bool{false, false}
	cols := [][]Value{nil, make([]Value, batch)}
	copyBin := func(p []byte) []byte { return p }

	scan := func(b *testing.B, fill func(cur *Cursor) (int, float64, error)) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			cur, err := tbl.Cursor()
			if err != nil {
				b.Fatal(err)
			}
			total, seen := 0.0, 0
			for {
				n, sum, err := fill(cur)
				if err != nil {
					b.Fatal(err)
				}
				total += sum
				seen += n
				if n < batch {
					break
				}
			}
			cur.Close()
			if seen != rows || total <= 0 {
				b.Fatalf("scanned %d rows summing %v", seen, total)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	b.Run("FillBatch+RowView", func(b *testing.B) {
		scan(b, func(cur *Cursor) (int, float64, error) {
			sum := 0.0
			n, err := cur.FillBatch(batch, func(_ int64, row *RowView) error {
				v, err := row.Col(1)
				sum += v.F
				return err
			})
			return n, sum, err
		})
	})
	b.Run("FillColumns", func(b *testing.B) {
		scan(b, func(cur *Cursor) (int, float64, error) {
			n, err := cur.FillColumns(batch, need, cols, copyBin)
			sum := 0.0
			for _, v := range cols[1][:n] {
				sum += v.F
			}
			return n, sum, err
		})
	})
	b.Run("CountOnly", func(b *testing.B) {
		scan(b, func(cur *Cursor) (int, float64, error) {
			n, err := cur.FillColumns(batch, countOnly, nil, copyBin)
			return n, float64(n), err
		})
	})
}
