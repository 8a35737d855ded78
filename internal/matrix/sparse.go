package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// SparseMatrix is a row-compressed sparse Boolean matrix: each row stores
// its set column indices as a sorted []int32 (the per-row view of the CSR
// format the paper's sCPU/sGPU implementations use). Multiplication is
// Gustavson's row-wise SpGEMM where each product row is the union of the
// b-rows selected by the a-row, computed by a balanced tree of sorted-list
// merges (see rowMerger) with no sort. A product costs one scan of the n
// row headers, plus the merge work of the non-empty a-rows (the flops,
// times log fan-in), plus the output; its scratch is pooled and sized to
// that work, never to n. The parallel flavour distributes rows across
// goroutines exactly the way CUSPARSE distributes them across thread
// blocks, which is why SparseParallel serves as the paper's sGPU stand-in.
type SparseMatrix struct {
	n        int
	rows     [][]int32
	nnz      int
	parallel bool
	workers  int
}

type sparseBackend struct {
	parallel bool
	workers  int
}

// Sparse returns the serial sparse backend (paper: sCPU).
func Sparse() Backend { return sparseBackend{} }

// SparseParallel returns the row-parallel sparse backend (paper: sGPU);
// workers ≤ 0 means GOMAXPROCS.
func SparseParallel(workers int) Backend {
	return sparseBackend{parallel: true, workers: workers}
}

func (s sparseBackend) Name() string {
	if s.parallel {
		return "sparse-parallel"
	}
	return "sparse"
}

func (s sparseBackend) NewMatrix(n int) Bool {
	return &SparseMatrix{
		n:        n,
		rows:     make([][]int32, n),
		parallel: s.parallel,
		workers:  s.workers,
	}
}

// EmptyBytes estimates the row-header storage of an empty n×n sparse
// matrix (24 bytes per row slice header).
func (s sparseBackend) EmptyBytes(n int) int64 {
	return 24 * int64(n)
}

// NewSparse returns an empty serial n×n sparse matrix (convenience for
// tests and direct use).
func NewSparse(n int) *SparseMatrix {
	return Sparse().NewMatrix(n).(*SparseMatrix)
}

// Dim returns the matrix dimension.
func (m *SparseMatrix) Dim() int { return m.n }

func (m *SparseMatrix) check(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %d×%d", i, j, m.n, m.n))
	}
}

// Get reports entry (i, j) by binary search within the row.
func (m *SparseMatrix) Get(i, j int) bool {
	m.check(i, j)
	row := m.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// Set inserts entry (i, j), keeping the row sorted.
func (m *SparseMatrix) Set(i, j int) {
	m.check(i, j)
	row := m.rows[i]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return
	}
	row = append(row, 0)
	copy(row[k+1:], row[k:])
	row[k] = int32(j)
	m.rows[i] = row
	m.nnz++
}

// Nnz returns the number of set entries.
func (m *SparseMatrix) Nnz() int { return m.nnz }

// Bytes estimates the heap bytes of the row storage: 24 bytes per row
// slice header plus 4 bytes per stored column index.
func (m *SparseMatrix) Bytes() int64 {
	return 24*int64(m.n) + 4*int64(m.nnz)
}

// Grow resizes the matrix to n×n in place, keeping every entry. The CSR
// row list simply gains empty rows; column indices need no translation.
func (m *SparseMatrix) Grow(n int) {
	if n <= m.n {
		return
	}
	rows := make([][]int32, n)
	copy(rows, m.rows)
	m.rows = rows
	m.n = n
}

// Clone returns an independent copy.
func (m *SparseMatrix) Clone() Bool {
	cp := &SparseMatrix{
		n:        m.n,
		rows:     make([][]int32, m.n),
		nnz:      m.nnz,
		parallel: m.parallel,
		workers:  m.workers,
	}
	for i, row := range m.rows {
		if len(row) > 0 {
			nr := make([]int32, len(row))
			copy(nr, row)
			cp.rows[i] = nr
		}
	}
	return cp
}

// Equal reports entry-wise equality.
func (m *SparseMatrix) Equal(other Bool) bool {
	o := mustSparse(other, m.n)
	if m.nnz != o.nnz {
		return false
	}
	for i := range m.rows {
		a, b := m.rows[i], o.rows[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// Range iterates set entries in row-major order.
func (m *SparseMatrix) Range(fn func(i, j int) bool) {
	for i, row := range m.rows {
		for _, j := range row {
			if !fn(i, int(j)) {
				return
			}
		}
	}
}

// RangeRow iterates the set columns of row i in ascending order.
func (m *SparseMatrix) RangeRow(i int, fn func(j int) bool) {
	m.check(i, 0)
	for _, j := range m.rows[i] {
		if !fn(int(j)) {
			return
		}
	}
}

// Or computes m |= other.
func (m *SparseMatrix) Or(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		merged, grew := unionSorted(m.rows[i], o.rows[i])
		if grew {
			m.nnz += len(merged) - len(m.rows[i])
			m.rows[i] = merged
			changed = true
		}
	}
	return changed
}

// And computes m &= other.
func (m *SparseMatrix) And(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		kept := intersectSorted(m.rows[i], o.rows[i])
		if len(kept) != len(m.rows[i]) {
			m.nnz += len(kept) - len(m.rows[i])
			m.rows[i] = kept
			changed = true
		}
	}
	return changed
}

// AndNot computes m &= ¬other.
func (m *SparseMatrix) AndNot(other Bool) bool {
	o := mustSparse(other, m.n)
	changed := false
	for i := range m.rows {
		kept := differenceSorted(m.rows[i], o.rows[i])
		if len(kept) != len(m.rows[i]) {
			m.nnz += len(kept) - len(m.rows[i])
			m.rows[i] = kept
			changed = true
		}
	}
	return changed
}

// intersectSorted returns a ∩ b for sorted unique slices. When nothing is
// dropped, a is returned as-is.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j, kept := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			kept++
			i++
			j++
		}
	}
	if kept == len(a) {
		return a
	}
	out = make([]int32, 0, kept)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// differenceSorted returns a \ b for sorted unique slices. When nothing is
// dropped, a is returned as-is.
func differenceSorted(a, b []int32) []int32 {
	dropped := 0
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			dropped++
		}
	}
	if dropped == 0 {
		return a
	}
	out := make([]int32, 0, len(a)-dropped)
	j = 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// AddMul computes m |= a × b with merge-based row products. All product
// rows are materialised before merging, so m may alias a or b.
func (m *SparseMatrix) AddMul(a, b Bool) bool {
	return m.addMulRows(mustSparse(a, m.n), mustSparse(b, m.n), nil)
}

// AddMulRows is AddMul restricted to the masked rows: only rows i with
// rows[i] set are multiplied and merged. The mask is read in the same scan
// as the row headers, so beyond that scan a small frontier pays for its own
// rows only.
func (m *SparseMatrix) AddMulRows(a, b Bool, rows []bool) bool {
	if len(rows) != m.n {
		panic(fmt.Sprintf("matrix: row mask length %d for %d×%d", len(rows), m.n, m.n))
	}
	return m.addMulRows(mustSparse(a, m.n), mustSparse(b, m.n), rows)
}

// productGrain is the number of rows a parallel worker claims per fetch;
// it keeps contention on the shared counter low.
const productGrain = 64

// mergerPool recycles rowMerger scratch across products, so a closure's
// steady state reuses the arenas of earlier passes.
var mergerPool = sync.Pool{New: func() any { return new(rowMerger) }}

// addMulRows is the row-product driver behind AddMul (mask nil) and
// AddMulRows. Each worker takes a rowMerger from mergerPool and fills it
// with the product rows of the rows it visits: serially one worker visits
// [0, n), in parallel workers claim productGrain-row chunks from a shared
// counter. Only after every worker has finished are the rows merged into
// m, so m may alias a or b.
func (m *SparseMatrix) addMulRows(a, b *SparseMatrix, mask []bool) bool {
	workers := 1
	if m.parallel {
		workers = m.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, (m.n+productGrain-1)/productGrain)
	}
	if workers <= 1 {
		rm := mergerPool.Get().(*rowMerger)
		rm.products(a, b, mask, 0, m.n)
		return m.mergeFrom(rm)
	}
	mergers := make([]*rowMerger, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range mergers {
		rm := mergerPool.Get().(*rowMerger)
		mergers[w] = rm
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(productGrain)) - productGrain
				if lo >= m.n {
					return
				}
				rm.products(a, b, mask, lo, min(lo+productGrain, m.n))
			}
		}()
	}
	wg.Wait()
	changed := false
	for _, rm := range mergers {
		if m.mergeFrom(rm) {
			changed = true
		}
	}
	return changed
}

// mergeFrom unions rm's product rows into m and returns rm to mergerPool.
// unionSorted copies into an empty row, so no stored row aliases the
// pooled arena.
func (m *SparseMatrix) mergeFrom(rm *rowMerger) bool {
	changed := false
	for _, h := range rm.hits {
		merged, grew := unionSorted(m.rows[h.row], rm.out[h.lo:h.hi])
		if grew {
			m.nnz += len(merged) - len(m.rows[h.row])
			m.rows[h.row] = merged
			changed = true
		}
	}
	rm.out, rm.hits = rm.out[:0], rm.hits[:0]
	mergerPool.Put(rm)
	return changed
}

// rowMerger is the per-worker scratch of the merge-based SpGEMM kernel:
// two reusable [][]int32 list buffers plus two ping-pong arenas backing
// the intermediate merge rounds, and the out arena holding the finished
// product rows that hits locates. Capacity grows to the working set of the
// largest product and is then reused, so the steady-state kernel allocates
// only the rows it merges into the destination.
type rowMerger struct {
	cand, next     [][]int32
	arenaA, arenaB []int32
	out            []int32
	hits           []rowHit
}

// rowHit locates product row `row` at out[lo:hi] of its rowMerger. It
// holds no pointers, so the hit list costs the garbage collector nothing.
type rowHit struct{ row, lo, hi int }

// products materialises the rows i in [lo, hi) of a×b that the mask
// keeps and that are non-empty in a.
func (rm *rowMerger) products(a, b *SparseMatrix, mask []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		if (mask == nil || mask[i]) && len(a.rows[i]) > 0 {
			rm.productRow(a, b, i)
		}
	}
}

// productRow appends row i of a×b to the out arena and records its hit
// when it is non-empty. The candidate rows b.rows[k] for k ∈ a.rows[i]
// are merged pairwise in balanced rounds — a merge tree of depth
// log₂(fan-in) — so the cost is O(output·log fan-in) with no n-sized
// scratch and no sort. Each round writes into the arena its inputs do NOT
// occupy; an odd leftover list is copied into the round's arena rather
// than carried by reference, so every list read in round r+1 lives in
// memory written in round r and arena writes never alias arena reads.
func (rm *rowMerger) productRow(a, b *SparseMatrix, i int) {
	rm.cand = rm.cand[:0]
	for _, k := range a.rows[i] {
		if row := b.rows[k]; len(row) > 0 {
			rm.cand = append(rm.cand, row)
		}
	}
	if len(rm.cand) == 0 {
		return
	}
	cur, free := rm.cand, rm.next
	useA := true
	for len(cur) > 1 {
		arena := rm.arenaB[:0]
		if useA {
			arena = rm.arenaA[:0]
		}
		nxt := free[:0]
		for p := 0; p+1 < len(cur); p += 2 {
			start := len(arena)
			arena = mergeRowsInto(arena, cur[p], cur[p+1])
			nxt = append(nxt, arena[start:len(arena):len(arena)])
		}
		if len(cur)%2 == 1 {
			start := len(arena)
			arena = append(arena, cur[len(cur)-1]...)
			nxt = append(nxt, arena[start:len(arena):len(arena)])
		}
		if useA {
			rm.arenaA = arena
		} else {
			rm.arenaB = arena
		}
		cur, free = nxt, cur
		useA = !useA
	}
	rm.cand, rm.next = cur, free
	lo := len(rm.out)
	rm.out = append(rm.out, cur[0]...)
	rm.hits = append(rm.hits, rowHit{row: i, lo: lo, hi: len(rm.out)})
}

// mergeRowsInto appends the sorted union of x and y (sorted unique
// slices) to dst and returns the extended slice.
func mergeRowsInto(dst, x, y []int32) []int32 {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			dst = append(dst, x[i])
			i++
		case x[i] > y[j]:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, x[i])
			i++
			j++
		}
	}
	dst = append(dst, x[i:]...)
	return append(dst, y[j:]...)
}

// unionSorted merges two sorted unique slices; grew reports whether the
// result has entries beyond a. When nothing is added, a is returned as-is.
func unionSorted(a, b []int32) (merged []int32, grew bool) {
	if len(b) == 0 {
		return a, false
	}
	if len(a) == 0 {
		out := make([]int32, len(b))
		copy(out, b)
		return out, true
	}
	// Fast subset check: count b-elements missing from a.
	extra := 0
	ai := 0
	for _, x := range b {
		for ai < len(a) && a[ai] < x {
			ai++
		}
		if ai >= len(a) || a[ai] != x {
			extra++
		}
	}
	if extra == 0 {
		return a, false
	}
	out := make([]int32, 0, len(a)+extra)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

// Transpose returns the transposed matrix (same backend flavour).
func (m *SparseMatrix) Transpose() *SparseMatrix {
	t := &SparseMatrix{
		n:        m.n,
		rows:     make([][]int32, m.n),
		nnz:      m.nnz,
		parallel: m.parallel,
		workers:  m.workers,
	}
	// Count per-column first so each transposed row is allocated once.
	counts := make([]int, m.n)
	for _, row := range m.rows {
		for _, j := range row {
			counts[j]++
		}
	}
	for j, c := range counts {
		if c > 0 {
			t.rows[j] = make([]int32, 0, c)
		}
	}
	// Row-major iteration appends column indices in increasing i, so the
	// transposed rows come out sorted.
	for i, row := range m.rows {
		for _, j := range row {
			t.rows[j] = append(t.rows[j], int32(i))
		}
	}
	return t
}

// ToDense converts to a dense matrix (serial backend).
func (m *SparseMatrix) ToDense() *DenseMatrix {
	d := NewDense(m.n)
	m.Range(func(i, j int) bool {
		d.Set(i, j)
		return true
	})
	return d
}

// FromDense converts a dense matrix to a sparse one (serial backend).
func FromDense(d *DenseMatrix) *SparseMatrix {
	s := NewSparse(d.Dim())
	d.Range(func(i, j int) bool {
		s.rows[i] = append(s.rows[i], int32(j))
		s.nnz++
		return true
	})
	return s
}

func mustSparse(b Bool, n int) *SparseMatrix {
	s, ok := b.(*SparseMatrix)
	if !ok {
		panic(fmt.Sprintf("matrix: mixed backends: expected *SparseMatrix, got %T", b))
	}
	if s.n != n {
		panic(fmt.Sprintf("matrix: dimension mismatch: %d vs %d", s.n, n))
	}
	return s
}
