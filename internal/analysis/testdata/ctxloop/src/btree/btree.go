// Package btree mocks the leaf iterator the executor may walk directly.
package btree

type Page struct{}

type Iterator struct{}

func (it *Iterator) Next() bool { return false }
func (it *Iterator) LeafRun(max int) (leaf *Page, from, to int, err error) {
	return nil, 0, 0, nil
}
