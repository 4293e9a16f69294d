package sparse

import "roarray/internal/cmat"

// workspace is the iteration state of one solve: the n x k iterates, the
// m x k products, AᴴY, the row magnitudes, the Kronecker (or dense Cholesky)
// scratch, the row buffers and the gap certificate's nonzero-row list.
// solveADMM uses the slots under their own names; solveFISTA takes z as its
// iterate x, u as the previous iterate, v as the extrapolation point w, atw
// as the gradient Aᴴ(Aw - Y) and av as the residual Aw - Y.
//
// Each Solver keeps its workspaces in a sync.Pool. A solve takes one for its
// whole duration and returns it once the row magnitudes have been copied into
// the caller's Result.RowMags, so no two concurrent solves ever share one and
// nothing a caller keeps aliases one. A workspace is re-shaped for each
// solve's snapshot count k over buffers that only grow, so a warm solve
// allocates nothing but its result (and nothing at all through
// SolveMultiRatio handed a RowMags buffer to reuse).
type workspace struct {
	z, u, v, atw, aty cmat.Matrix  // n x k
	av, w             cmat.Matrix  // m x k; w only on the dense ADMM path
	buf               []complex128 // backing storage of the matrices above

	fwd, bwd     []complex128 // dense ADMM triangular solves, m each
	kscratch     []complex128 // Kronecker kernels, scratchLen(k)
	mags         []float64    // n row magnitudes
	xrow, rowBuf []complex128 // k-long row scratch
	nz           []int        // gap certificate's nonzero rows
}

// takeWorkspace takes a workspace from the solver's pool, shaped for k snapshot
// columns, with z, u and v cleared (both solvers start from zero). Every
// other slot is written before it is read. Return it to s.pool when done.
func (s *Solver) takeWorkspace(k int) *workspace {
	ws, _ := s.pool.Get().(*workspace)
	if ws == nil {
		ws = new(workspace)
	}
	n, m := s.cols, s.rows
	nk, mk := n*k, m*k
	dense := s.kron == nil && s.opts.method == MethodADMM
	size := 5*nk + mk
	if dense {
		size += mk
	}
	ws.buf = grow(ws.buf, size)
	b := ws.buf
	for _, mat := range []*cmat.Matrix{&ws.z, &ws.u, &ws.v, &ws.atw, &ws.aty} {
		*mat = cmat.Wrap(n, k, b[:nk:nk])
		b = b[nk:]
	}
	ws.av = cmat.Wrap(m, k, b[:mk:mk])
	if dense {
		ws.w = cmat.Wrap(m, k, b[mk:2*mk:2*mk])
		ws.fwd, ws.bwd = grow(ws.fwd, m), grow(ws.bwd, m)
	}
	clear(ws.buf[:3*nk]) // z, u, v
	if s.kron != nil {
		ws.kscratch = grow(ws.kscratch, s.kron.scratchLen(k))
	}
	ws.mags = grow(ws.mags, n)
	ws.xrow, ws.rowBuf = grow(ws.xrow, k), grow(ws.rowBuf, k)
	return ws
}

// grow returns b resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
