package core

import (
	"context"

	"cfpq/internal/matrix"
)

// schedule is one closure schedule as the fixpoint driver sees it: the
// working set it is budgeted against and the body of one pass.
type schedule struct {
	// bytes estimates the matrix bytes the coming pass holds: the index
	// plus the schedule's own working copies.
	bytes func() int64
	// idle, when set, ends the fixpoint before a pass is counted (the
	// frontier schedule stops once its Δ is empty).
	idle func() bool
	// pass runs one pass and returns the products it made, the active-row
	// count its event reports, and whether another pass is due.
	pass func() (products, frontier int, more bool)
	// trace is the legacy WithTrace callback, fired after every pass.
	trace func(iteration int, ix *Index)
}

// fixpoint is the closure loop of Algorithm 1 (lines 8–9), shared by every
// schedule: in-place, naive, semi-naive, incremental update and source
// frontier. Before each pass it checks ctx, records the working-set
// estimate in Stats.PeakBytes and enforces the memory budget against it;
// it counts the pass and brackets it with pt's events. It stops after the
// first pass that reports no further change.
func (e *Engine) fixpoint(ctx context.Context, ix *Index, pt *passTracer, s schedule) (stats Stats, err error) {
	defer func() { stats.observePeak(ix.Bytes()) }()
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		est := s.bytes()
		stats.observePeak(est)
		if err := e.CheckBudget(est); err != nil {
			return stats, err
		}
		if s.idle != nil && s.idle() {
			return stats, nil
		}
		stats.Iterations++
		pt.beginPass()
		products, frontier, more := s.pass()
		stats.Products += products
		pt.endPass(products, frontier)
		if s.trace != nil {
			s.trace(stats.Iterations, ix)
		}
		if !more {
			return stats, nil
		}
	}
}

// semiNaive is the state of the semi-naive schedule: Δ holds the bits the
// previous pass added, and a pass multiplies only Δ against the index,
//
//	T_A += ΔT_B × T_C  ∪  T_B × ΔT_C        for every A → B C
//
// Any new entry must involve at least one newly added operand entry, so
// the fixpoint equals the full closure's while the work per pass shrinks
// as the closure converges.
type semiNaive struct {
	ix    *Index
	be    matrix.Backend // allocates each pass's next Δ
	delta []matrix.Bool
	// rows, when set, restricts the products to the active rows (the
	// source-frontier schedule).
	rows []bool
}

// newMats allocates count empty n×n matrices.
func newMats(be matrix.Backend, count, n int) []matrix.Bool {
	mats := make([]matrix.Bool, count)
	for a := range mats {
		mats[a] = be.NewMatrix(n)
	}
	return mats
}

// cloneMats deep-copies a matrix set.
func cloneMats(mats []matrix.Bool) []matrix.Bool {
	out := make([]matrix.Bool, len(mats))
	for a, m := range mats {
		out[a] = m.Clone()
	}
	return out
}

// bytes is the working set of the coming pass: the index, the current Δ
// and the empty next-Δ matrices the pass allocates.
func (s *semiNaive) bytes() int64 {
	return s.ix.Bytes() + matsBytes(s.delta) + int64(len(s.delta))*s.be.EmptyBytes(s.ix.n)
}

// empty reports whether Δ holds no bits.
func (s *semiNaive) empty() bool {
	for _, m := range s.delta {
		if m.Nnz() > 0 {
			return false
		}
	}
	return true
}

// step runs one semi-naive pass: the products over Δ, then only the
// genuinely new bits are folded into the index and become the next Δ. It
// has the shape of schedule.pass, reporting no frontier and whether any
// bit was new.
func (s *semiNaive) step() (products, frontier int, changed bool) {
	ix := s.ix
	next := newMats(s.be, len(ix.mats), ix.n)
	for _, r := range ix.cnf.Binary {
		if s.rows == nil {
			next[r.A].AddMul(s.delta[r.B], ix.mats[r.C])
			next[r.A].AddMul(ix.mats[r.B], s.delta[r.C])
		} else {
			next[r.A].AddMulRows(s.delta[r.B], ix.mats[r.C], s.rows)
			next[r.A].AddMulRows(ix.mats[r.B], s.delta[r.C], s.rows)
		}
	}
	for a, m := range next {
		m.AndNot(ix.mats[a]) // keep only genuinely new bits
		if m.Nnz() > 0 {
			ix.mats[a].Or(m)
			changed = true
		}
	}
	s.delta = next
	return 2 * len(ix.cnf.Binary), 0, changed
}
