package matrix

import (
	"math/rand"
	"sync"
	"testing"
)

// The parallel backends fan AddMul out across worker goroutines: dense
// workers write disjoint row ranges of a shared product buffer, sparse
// workers fill their own pooled scratch. These tests exist to run
// under `go test -race`: they exercise the internal parallelism (many
// workers, odd dimensions, aliased operands) and the one cross-matrix
// concurrency pattern the engine relies on — many AddMuls into distinct
// destinations sharing read-only operands.

func randomMatrix(rng *rand.Rand, be Backend, n, nnz int) Bool {
	m := be.NewMatrix(n)
	for i := 0; i < nnz; i++ {
		m.Set(rng.Intn(n), rng.Intn(n))
	}
	return m
}

func copyInto(be Backend, src Bool) Bool {
	dst := be.NewMatrix(src.Dim())
	src.Range(func(i, j int) bool {
		dst.Set(i, j)
		return true
	})
	return dst
}

func parallelBackends() []Backend {
	return []Backend{
		DenseParallel(0), DenseParallel(3), // GOMAXPROCS and a non-divisor worker count
		SparseParallel(0), SparseParallel(3),
	}
}

// TestParallelAddMulMatchesSerial checks the parallel kernels, plain and
// row-masked, against the serial sparse reference on random inputs,
// including the m |= m × m aliasing the closure loop performs.
func TestParallelAddMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := Sparse()
	for trial := 0; trial < 10; trial++ {
		// Straddles the 64-bit word boundary, and spans several of the
		// sparse kernel's 64-row chunks so SparseParallel(3) runs more than
		// one worker.
		n := 1 + rng.Intn(300)
		nnz := rng.Intn(4 * n)
		a := randomMatrix(rng, ref, n, nnz)
		b := randomMatrix(rng, ref, n, nnz)
		pre := randomMatrix(rng, ref, n, n/2)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
		}
		want := copyInto(ref, pre)
		wantChanged := want.AddMul(a, b)
		wantRows := copyInto(ref, pre)
		wantRowsChanged := wantRows.AddMulRows(a, b, mask)
		// Aliased self-multiplication, as in T_A |= T_A × T_A.
		selfWant := copyInto(ref, pre)
		selfWant.AddMul(selfWant, selfWant)
		selfRowsWant := copyInto(ref, pre)
		selfRowsWant.AddMulRows(selfRowsWant, selfRowsWant, mask)
		for _, be := range parallelBackends() {
			got := copyInto(be, pre)
			changed := got.AddMul(copyInto(be, a), copyInto(be, b))
			if changed != wantChanged || !pairsEqual(got, want) {
				t.Fatalf("trial %d backend %s: AddMul diverges from serial (changed %v vs %v)",
					trial, be.Name(), changed, wantChanged)
			}
			gotRows := copyInto(be, pre)
			changed = gotRows.AddMulRows(copyInto(be, a), copyInto(be, b), mask)
			if changed != wantRowsChanged || !pairsEqual(gotRows, wantRows) {
				t.Fatalf("trial %d backend %s: AddMulRows diverges from serial (changed %v vs %v)",
					trial, be.Name(), changed, wantRowsChanged)
			}
			selfGot := copyInto(be, pre)
			selfGot.AddMul(selfGot, selfGot)
			if !pairsEqual(selfGot, selfWant) {
				t.Fatalf("trial %d backend %s: aliased AddMul diverges from serial", trial, be.Name())
			}
			selfRowsGot := copyInto(be, pre)
			selfRowsGot.AddMulRows(selfRowsGot, selfRowsGot, mask)
			if !pairsEqual(selfRowsGot, selfRowsWant) {
				t.Fatalf("trial %d backend %s: aliased AddMulRows diverges from serial", trial, be.Name())
			}
		}
	}
}

func pairsEqual(a, b Bool) bool {
	pa, pb := Pairs(a), Pairs(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// TestParallelAddMulConcurrentDestinations runs many AddMuls with shared
// read-only operands into distinct destinations at once — the engine's
// access pattern when several productions read the same non-terminal
// matrix. Under -race this flushes out any hidden write to an operand.
func TestParallelAddMulConcurrentDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, goroutines = 97, 8
	for _, be := range parallelBackends() {
		a := randomMatrix(rng, be, n, 3*n)
		b := randomMatrix(rng, be, n, 3*n)
		want := be.NewMatrix(n)
		want.AddMul(a, b)
		var wg sync.WaitGroup
		results := make([]Bool, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := be.NewMatrix(n)
				dst.AddMul(a, b)
				results[g] = dst
			}(g)
		}
		wg.Wait()
		for g, got := range results {
			if !got.Equal(want) {
				t.Fatalf("backend %s: concurrent AddMul %d diverged", be.Name(), g)
			}
		}
	}
}
