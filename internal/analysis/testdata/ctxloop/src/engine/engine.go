// Package engine mocks the cursor surface the executor drains.
package engine

type RowView struct{}

type Value struct{}

type Cursor struct{}

func (c *Cursor) Next() bool { return false }
func (c *Cursor) FillBatch(max int, fn func(key int64, row *RowView) error) (int, error) {
	return 0, nil
}
func (c *Cursor) FillColumns(max int, need []bool, cols [][]Value, copyBin func([]byte) []byte) (int, error) {
	return 0, nil
}
func (c *Cursor) Key() int64 { return 0 }
func (c *Cursor) Close()     {}
