package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mixedValue draws a row image from the mix that used to break splits
// by record count: mostly short values (8–72 B) with one in three a
// 3000 B value, so a leaf holds two large records plus some short ones.
func mixedValue(rng *rand.Rand, key int64) []byte {
	n := 8 + rng.Intn(65)
	if rng.Intn(3) == 0 {
		n = 3000
	}
	v := make([]byte, n)
	rng.Read(v)
	copy(v, fmt.Sprint(key))
	return v
}

// checkTreeMatches asserts that Get and a full leaf-chain scan both
// return exactly want, the scan in key order.
func checkTreeMatches(t *testing.T, tr *Tree, want map[int64][]byte) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(want))
	}
	for k, v := range want {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%d): value mismatch", k)
		}
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	prev := int64(minInt64)
	for it.Next() {
		k := it.Key()
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev = k
		v, ok := want[k]
		if !ok {
			t.Fatalf("scan returned key %d that was never inserted", k)
		}
		if !bytes.Equal(it.Value(), v) {
			t.Fatalf("scan(%d): value mismatch", k)
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Errorf("scan returned %d keys, want %d", n, len(want))
	}
}

// TestMixedSizeInsertsAlwaysFit inserts random keys with a mix of short
// and 3000 B values. A leaf split must leave room for the incoming
// record whichever half it lands in, so every insert succeeds and every
// key stays reachable by Get as well as by the leaf-chain scan.
func TestMixedSizeInsertsAlwaysFit(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := newTestTree(t, 512)
			want := map[int64][]byte{}
			for i := 0; i < 300; i++ {
				k := rng.Int63n(1 << 20)
				if _, dup := want[k]; dup {
					continue
				}
				v := mixedValue(rng, k)
				if err := tr.Insert(k, v); err != nil {
					t.Fatalf("insert %d (key %d, %d B): %v", i, k, len(v), err)
				}
				want[k] = v
			}
			checkTreeMatches(t, tr, want)
		})
	}
}

// TestMaxSizeValuesAmongShortOnes mixes values of MaxValueSize — a
// record that needs a page of its own — into runs of short ones, both
// as inserts and as in-place overwrites (Put) that grow a short value
// to the maximum. No two-way split can place such a record in the
// middle of a full leaf; the insert must still succeed.
func TestMaxSizeValuesAmongShortOnes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := newTestTree(t, 512)
			want := map[int64][]byte{}
			keys := []int64{}
			for i := 0; i < 400; i++ {
				n := 8 + rng.Intn(120)
				if rng.Intn(10) == 0 {
					n = MaxValueSize
				}
				v := make([]byte, n)
				rng.Read(v)
				k := rng.Int63n(1 << 20)
				if len(keys) > 0 && rng.Intn(4) == 0 {
					k = keys[rng.Intn(len(keys))]
				}
				if err := tr.Put(k, v); err != nil {
					t.Fatalf("put %d (key %d, %d B): %v", i, k, len(v), err)
				}
				if _, ok := want[k]; !ok {
					keys = append(keys, k)
				}
				want[k] = v
			}
			checkTreeMatches(t, tr, want)
		})
	}
}
