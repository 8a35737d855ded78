package matrix

import (
	"runtime"
	"slices"
	"testing"
)

// paddedChain returns an n×n matrix holding the 3-edge chain 0→1→2→3;
// every other row is empty padding.
func paddedChain(be Backend, n int) Bool {
	m := be.NewMatrix(n)
	for v := 0; v < 3; v++ {
		m.Set(v, v+1)
	}
	return m
}

// bytesPerCall reports the heap bytes one call of f allocates, averaged
// over 100 calls after one warm-up call.
func bytesPerCall(f func()) uint64 {
	const calls = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// TestSparseProductAllocIndependentOfDimension pins that a sparse product
// allocates for its work, not for the matrix dimension: the same 3-edge
// chain product costs no more bytes padded to 10⁵ nodes than to 10³. The
// warm-up call's merge allocates the output rows, so the measured calls
// allocate only the kernel's own scratch.
func TestSparseProductAllocIndependentOfDimension(t *testing.T) {
	const slack = 1024
	for _, be := range []Backend{Sparse(), SparseParallel(3)} {
		measure := func(n int) (addMul, addMulRows uint64) {
			a := paddedChain(be, n)
			mask := make([]bool, n)
			mask[0], mask[1] = true, true
			dst := be.NewMatrix(n)
			addMul = bytesPerCall(func() { dst.AddMul(a, a) })
			dstRows := be.NewMatrix(n)
			addMulRows = bytesPerCall(func() { dstRows.AddMulRows(a, a, mask) })
			if dst.Nnz() != 2 || dstRows.Nnz() != 2 {
				t.Fatalf("%s n=%d: products hold %d and %d pairs, want 2 and 2", be.Name(), n, dst.Nnz(), dstRows.Nnz())
			}
			return addMul, addMulRows
		}
		smallMul, smallRows := measure(1_000)
		bigMul, bigRows := measure(100_000)
		if bigMul > smallMul+slack {
			t.Errorf("%s AddMul: %d B/call at n=10⁵ vs %d B/call at n=10³; the kernel allocates per dimension", be.Name(), bigMul, smallMul)
		}
		if bigRows > smallRows+slack {
			t.Errorf("%s AddMulRows: %d B/call at n=10⁵ vs %d B/call at n=10³; the kernel allocates per dimension", be.Name(), bigRows, smallRows)
		}

		// The kernel's scratch is pooled and reused by the next product, so
		// no row stored in a destination may alias it.
		const n = 1_000
		a := paddedChain(be, n)
		dst1 := be.NewMatrix(n)
		dst1.AddMul(a, a)
		want := Pairs(dst1)
		c := be.NewMatrix(n)
		c.Set(0, 5)
		c.Set(5, 7)
		c.Set(1, 8)
		c.Set(8, 9)
		dst2 := be.NewMatrix(n)
		dst2.AddMul(c, c)
		if got := Pairs(dst1); !slices.Equal(got, want) {
			t.Fatalf("%s: an unrelated AddMul changed an earlier destination: %v, want %v", be.Name(), got, want)
		}
	}
}
