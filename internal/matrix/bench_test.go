package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchMatrices builds a random pair of n×n matrices at the given density
// on one backend.
func benchMatrices(be Backend, n int, density float64, seed int64) (a, b Bool) {
	rng := rand.New(rand.NewSource(seed))
	a = be.NewMatrix(n)
	b = be.NewMatrix(n)
	target := int(float64(n) * float64(n) * density)
	for i := 0; i < target; i++ {
		a.Set(rng.Intn(n), rng.Intn(n))
		b.Set(rng.Intn(n), rng.Intn(n))
	}
	return a, b
}

// BenchmarkAddMul measures the core kernel dst |= a×b per backend across
// sizes and densities — the operation the whole closure loop is made of.
func BenchmarkAddMul(b *testing.B) {
	for _, be := range Backends() {
		for _, n := range []int{64, 256, 1024} {
			for _, density := range []float64{0.001, 0.01, 0.1} {
				name := fmt.Sprintf("%s/n=%d/density=%g", be.Name(), n, density)
				b.Run(name, func(b *testing.B) {
					ma, mb := benchMatrices(be, n, density, 1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst := be.NewMatrix(n)
						dst.AddMul(ma, mb)
					}
				})
			}
		}
	}
}

// BenchmarkOr measures the union kernel.
func BenchmarkOr(b *testing.B) {
	for _, be := range Backends() {
		b.Run(be.Name(), func(b *testing.B) {
			ma, mb := benchMatrices(be, 1024, 0.01, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := ma.Clone()
				dst.Or(mb)
			}
		})
	}
}

// BenchmarkTransitiveClosureSquare measures the raw squaring loop
// m ← m ∪ m² to fixpoint on a chain — the closure pattern without grammar
// bookkeeping, isolating backend behaviour.
func BenchmarkTransitiveClosureSquare(b *testing.B) {
	for _, be := range Backends() {
		for _, n := range []int{128, 512} {
			b.Run(fmt.Sprintf("%s/n=%d", be.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := be.NewMatrix(n)
					for v := 0; v+1 < n; v++ {
						m.Set(v, v+1)
					}
					for m.AddMul(m, m) {
					}
				}
			})
		}
	}
}

// BenchmarkSparseAddMulPadded is the padding probe at kernel level: the
// Dyck chain product A × X on the word a^(n−1−d) b^d at a fixed depth
// d = 512 across n. A holds the a-edges and X the closed relation of X in
// the CNF S → A X | A B, X → S B, so the product's flops and output are
// the same at every n and only the empty rows grow. dst is reused, so
// after the first iteration the merge adds nothing and B/op is the
// kernel's own allocation.
func BenchmarkSparseAddMulPadded(b *testing.B) {
	const d = 512
	for _, n := range []int{2_500, 10_000, 40_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := n - 1 - d // the first node with an outgoing b-edge
			a, x, dst := NewSparse(n), NewSparse(n), NewSparse(n)
			for i := 0; i < p; i++ {
				a.Set(i, i+1)
			}
			for k := 1; k < d; k++ {
				x.Set(p-k, p+k+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.AddMul(a, x)
			}
		})
	}
}
