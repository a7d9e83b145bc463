package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sqlarray/internal/core"
	"sqlarray/internal/pages"
)

func viewTestStore(t *testing.T, blobBytes int) (*Store, Ref, []byte, *pages.BufferPool) {
	t.Helper()
	bp := pages.NewBufferPool(pages.NewMemDisk(), 1<<12)
	s := NewStore(bp)
	data := make([]byte, blobBytes)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	ref, err := s.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	return s, ref, data, bp
}

func TestViewWholeBlob(t *testing.T) {
	for _, n := range []int{1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 17} {
		s, ref, data, bp := viewTestStore(t, n)
		v, err := s.View(ref)
		if err != nil {
			t.Fatalf("View(%d): %v", n, err)
		}
		if v.Len() != int64(n) {
			t.Errorf("Len = %d, want %d", v.Len(), n)
		}
		wantChunks := NumChunks(int64(n))
		if v.NumChunks() != wantChunks {
			t.Errorf("NumChunks = %d, want %d", v.NumChunks(), wantChunks)
		}
		if got := v.AppendTo(nil); !bytes.Equal(got, data) {
			t.Errorf("AppendTo mismatch for %d bytes", n)
		}
		if c, ok := v.Contiguous(); ok != (wantChunks == 1) {
			t.Errorf("Contiguous ok = %v for %d chunks", ok, wantChunks)
		} else if ok && !bytes.Equal(c, data) {
			t.Errorf("Contiguous bytes mismatch")
		}
		// ReadAt against a straddling range.
		if n > 10 {
			dst := make([]byte, n-7)
			if err := v.ReadAt(dst, 5); err != nil {
				t.Fatalf("ReadAt: %v", err)
			}
			if !bytes.Equal(dst, data[5:5+len(dst)]) {
				t.Error("ReadAt mismatch")
			}
			if err := v.ReadAt(make([]byte, 8), int64(n)-4); !errors.Is(err, ErrShortRead) {
				t.Errorf("out-of-range ReadAt: %v", err)
			}
		}
		if got := bp.PinnedFrames(); got != wantChunks {
			t.Errorf("PinnedFrames while viewed = %d, want %d", got, wantChunks)
		}
		v.Release()
		v.Release() // idempotent
		if got := bp.PinnedFrames(); got != 0 {
			t.Errorf("PinnedFrames after Release = %d", got)
		}
	}
}

// TestViewReleaseReturnsFrameToLRU is the pin-lifecycle regression test:
// while a view is live its frames must be unevictable (DropCleanBuffers
// fails), and after Release the frames must be back on the LRU so the
// pool can quiesce and evict them.
func TestViewReleaseReturnsFrameToLRU(t *testing.T) {
	s, ref, _, bp := viewTestStore(t, 2*ChunkSize)
	v, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.DropCleanBuffers(); err == nil {
		t.Fatal("DropCleanBuffers must fail while a view pins chunk pages")
	}
	v.Release()
	if err := bp.DropCleanBuffers(); err != nil {
		t.Fatalf("DropCleanBuffers after Release: %v", err)
	}
	if got := bp.CachedPages(); got != 0 {
		t.Errorf("CachedPages after drop = %d (released frames not evictable)", got)
	}
	// The blob must still be readable cold.
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatalf("cold ReadAll after drop: %v", err)
	}
}

func TestReadRunsPinnedMatchesReadRuns(t *testing.T) {
	s, ref, data, bp := viewTestStore(t, 4*ChunkSize)
	runs := []Run{
		{SrcOff: 10, DstOff: 0, Len: 100},
		{SrcOff: ChunkSize - 8, DstOff: 100, Len: 16}, // straddles chunks 0/1
		{SrcOff: 3 * ChunkSize, DstOff: 116, Len: 64},
		{SrcOff: 20, DstOff: 180, Len: 8}, // same chunk as run 0 (dedup)
	}
	want := make([]byte, 188)
	if err := s.ReadRuns(ref, want, runs); err != nil {
		t.Fatal(err)
	}
	rv, err := s.ReadRunsPinned(ref, runs)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0, 1, 3 are touched; chunk 2 is not.
	if got := rv.PinnedChunks(); got != 3 {
		t.Errorf("PinnedChunks = %d, want 3", got)
	}
	got := make([]byte, 188)
	rv.CopyTo(got)
	if !bytes.Equal(got, want) {
		t.Error("CopyTo disagrees with ReadRuns")
	}
	// Segment visiting yields the same bytes in destination order.
	seg2 := make([]byte, 188)
	for i := range runs {
		rv.VisitRun(i, func(dstOff int, seg []byte) {
			copy(seg2[dstOff:], seg)
		})
	}
	if !bytes.Equal(seg2, want) {
		t.Error("VisitRun disagrees with ReadRuns")
	}
	// The straddling run must arrive as exactly two segments.
	nseg := 0
	rv.VisitRun(1, func(int, []byte) { nseg++ })
	if nseg != 2 {
		t.Errorf("straddling run visited as %d segments, want 2", nseg)
	}
	// Spot-check against the source bytes directly.
	if !bytes.Equal(got[:100], data[10:110]) {
		t.Error("run 0 bytes do not match the source blob")
	}
	rv.Release()
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after Release = %d", got)
	}
	// Bounds violations fail before pinning anything.
	//lint:allow pinleak the call is expected to fail; the zero-pin state is asserted below
	if _, err := s.ReadRunsPinned(ref, []Run{{SrcOff: 4*ChunkSize - 4, DstOff: 0, Len: 8}}); !errors.Is(err, ErrShortRead) {
		t.Errorf("out-of-range run: %v", err)
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames after failed pin = %d", got)
	}
}

// TestReadRunsPinnedSubarrayPlan feeds both run readers the runs
// core.SubarrayPlan produces for a corner of a stored 20x20x20 float
// cube (shifted past the array header, as a MAX-column subarray read
// does), on the raw chunk format and on XOR-compressed chunks: the
// pinned and copying reads must return the same bytes, and those bytes
// must be the in-memory subarray's payload.
func TestReadRunsPinnedSubarrayPlan(t *testing.T) {
	cube, err := core.New(core.Max, core.Float64, 20, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cube.Len(); i++ {
		cube.SetFloatAt(i, float64(i))
	}
	offset, size := []int{2, 3, 4}, []int{4, 2, 2}
	sub, err := cube.Subarray(offset, size, false)
	if err != nil {
		t.Fatal(err)
	}
	h := cube.Header()
	runs, err := core.SubarrayPlan(h, offset, size)
	if err != nil {
		t.Fatal(err)
	}
	blobRuns := make([]Run, len(runs))
	for i, r := range runs {
		blobRuns[i] = Run{SrcOff: r.SrcOff + h.EncodedSize(), DstOff: r.DstOff, Len: r.Len}
	}
	want := sub.Payload()
	s, bp := storeWithPool(t)
	for _, codec := range []*Codec{nil, {Kind: CodecXOR, Width: 8}} {
		var ref Ref
		if codec == nil {
			ref, err = s.Write(cube.Bytes())
		} else {
			ref, err = s.WriteCompressed(cube.Bytes(), *codec)
		}
		if err != nil {
			t.Fatal(err)
		}
		copied := make([]byte, len(want))
		if err := s.ReadRuns(ref, copied, blobRuns); err != nil {
			t.Fatal(err)
		}
		rv, err := s.ReadRunsPinned(ref, blobRuns)
		if err != nil {
			t.Fatal(err)
		}
		pinned := make([]byte, len(want))
		rv.CopyTo(pinned)
		rv.Release()
		if !bytes.Equal(pinned, copied) {
			t.Errorf("codec %v: pinned run read disagrees with copying run read", codec)
		}
		if !bytes.Equal(copied, want) {
			t.Errorf("codec %v: run read disagrees with the in-memory subarray", codec)
		}
	}
	if got := bp.PinnedFrames(); got != 0 {
		t.Errorf("PinnedFrames = %d", got)
	}
}

// TestSubarrayReadTouchesFewerChunks is the acceptance check: a
// subarray-shaped run read over a multi-chunk blob must report strictly
// fewer ChunkReads than materializing the same blob via ReadAll.
func TestSubarrayReadTouchesFewerChunks(t *testing.T) {
	s, ref, _, _ := viewTestStore(t, 16*ChunkSize)
	s.ResetStats()
	if _, err := s.ReadAll(ref); err != nil {
		t.Fatal(err)
	}
	whole := s.Stats().ChunkReads
	s.ResetStats()
	// A sliced read: three short runs spread over the blob.
	runs := []Run{
		{SrcOff: 0, DstOff: 0, Len: 64},
		{SrcOff: 7 * ChunkSize, DstOff: 64, Len: 64},
		{SrcOff: 15 * ChunkSize, DstOff: 128, Len: 64},
	}
	rv, err := s.ReadRunsPinned(ref, runs)
	if err != nil {
		t.Fatal(err)
	}
	rv.Release()
	sliced := s.Stats().ChunkReads
	if sliced >= whole {
		t.Errorf("sliced read touched %d chunks, ReadAll touched %d — pushdown not effective", sliced, whole)
	}
	if sliced != 3 {
		t.Errorf("sliced read touched %d chunks, want exactly 3", sliced)
	}
}

func TestViewNullAndEmpty(t *testing.T) {
	bp := pages.NewBufferPool(pages.NewMemDisk(), 64)
	s := NewStore(bp)
	v, err := s.View(Ref{})
	if err != nil {
		t.Fatalf("View(null): %v", err)
	}
	if v.NumChunks() != 0 || v.Len() != 0 {
		t.Errorf("null view: %d chunks, len %d", v.NumChunks(), v.Len())
	}
	v.Release()
	rv, err := s.ReadRunsPinned(Ref{}, nil)
	if err != nil {
		t.Fatalf("ReadRunsPinned(null, none): %v", err)
	}
	rv.Release()
	//lint:allow pinleak a null ref fails validation before any chunk is pinned
	if _, err := s.ReadRunsPinned(Ref{}, []Run{{Len: 1}}); !errors.Is(err, ErrBadRef) {
		t.Errorf("ReadRunsPinned(null, runs): %v", err)
	}
}
