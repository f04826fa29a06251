package jgf

import (
	"math"

	"ppar/internal/core"
	"ppar/internal/team"
)

// LUFact is the JGF LU factorisation benchmark: Gaussian elimination with
// partial pivoting on a dense N×N system, then a solve and residual check.
// The pivot search and row swap are inherently sequential per step; the
// trailing-submatrix update parallelises over rows. The shared-memory
// module work-shares that update; the distributed deployment replicates the
// computation (the classic JGF MPI LUFact broadcasts the pivot row anyway,
// and at our scale replication is the honest baseline — see DESIGN.md,
// "Kernels").
type LUFact struct {
	// A is the matrix (safe data: a failure resumes mid-factorisation).
	A [][]float64
	// B is the right-hand side.
	B []float64
	// Piv records the pivot rows.
	Piv []int

	N      int
	Result *LUResult
}

// LUResult receives the residual after solve.
type LUResult struct {
	Residual float64
	OK       bool
}

// NewLUFact builds a diagonally dominant deterministic system.
func NewLUFact(n int, res *LUResult) *LUFact {
	l := &LUFact{N: n, Result: res}
	l.A = make([][]float64, n)
	l.B = make([]float64, n)
	l.Piv = make([]int, n)
	r := uint64(13)
	next := func() float64 {
		r = r*6364136223846793005 + 1442695040888963407
		return float64(r>>11)/float64(1<<53) - 0.5
	}
	for i := range l.A {
		l.A[i] = make([]float64, n)
		for j := range l.A[i] {
			l.A[i][j] = next()
		}
		l.A[i][i] += float64(n) // dominance keeps pivots tame
		l.B[i] = next()
	}
	return l
}

// Main factorises, solves and validates.
func (l *LUFact) Main(ctx *core.Ctx) {
	ctx.Call("lu.factor", l.factor)
	ctx.Call("lu.solve", l.solve)
	ctx.Call("lu.finish", l.finish)
}

func (l *LUFact) factor(ctx *core.Ctx) {
	for k := 0; k < l.N-1; k++ {
		// Pivot selection and swap are a single (sequential) step.
		ctx.Call("lu.pivot", func(*core.Ctx) { l.pivot(k) })
		// The trailing update parallelises over rows.
		kk := k
		ctx.Call("lu.update", func(ctx *core.Ctx) {
			core.For(ctx, "lu.rows", kk+1, l.N, func(i int) {
				f := l.A[i][kk] / l.A[kk][kk]
				l.A[i][kk] = f
				rowK := l.A[kk]
				rowI := l.A[i]
				for j := kk + 1; j < l.N; j++ {
					rowI[j] -= f * rowK[j]
				}
			})
		})
		ctx.Call("lu.step", func(*core.Ctx) {})
	}
}

func (l *LUFact) pivot(k int) {
	p := k
	for i := k + 1; i < l.N; i++ {
		if math.Abs(l.A[i][k]) > math.Abs(l.A[p][k]) {
			p = i
		}
	}
	l.Piv[k] = p
	if p != k {
		l.A[p], l.A[k] = l.A[k], l.A[p]
		l.B[p], l.B[k] = l.B[k], l.B[p]
	}
}

func (l *LUFact) solve(ctx *core.Ctx) {
	// Forward elimination of B using the stored multipliers, then back
	// substitution; cheap, kept sequential as in JGF.
	for k := 0; k < l.N-1; k++ {
		for i := k + 1; i < l.N; i++ {
			l.B[i] -= l.A[i][k] * l.B[k]
		}
	}
	for i := l.N - 1; i >= 0; i-- {
		sum := l.B[i]
		for j := i + 1; j < l.N; j++ {
			sum -= l.A[i][j] * l.B[j]
		}
		l.B[i] = sum / l.A[i][i]
	}
}

func (l *LUFact) finish(ctx *core.Ctx) {
	if l.Result == nil {
		return
	}
	// Residual against a freshly built copy of the system.
	ref := NewLUFact(l.N, nil)
	worst := 0.0
	for i := 0; i < l.N; i++ {
		sum := 0.0
		for j := 0; j < l.N; j++ {
			sum += ref.A[i][j] * l.B[j]
		}
		if r := math.Abs(sum - ref.B[i]); r > worst {
			worst = r
		}
	}
	l.Result.Residual = worst
	l.Result.OK = worst < 1e-8
}

// LUSharedModule work-shares the trailing update. Note "lu.pivot" is a
// Single: exactly one thread swaps, the rest wait at the barrier.
func LUSharedModule() *core.Module {
	return core.NewModule("lu/smp").
		ParallelMethod("lu.factor").
		SingleMethod("lu.pivot").
		BarrierAfter("lu.pivot").
		LoopSchedule("lu.rows", team.Static, 1)
}

// LUCheckpointModule plugs checkpointing: a safe point per elimination step.
func LUCheckpointModule() *core.Module {
	return core.NewModule("lu/ckpt").
		SafeData("A", "B").
		SafePointAfter("lu.step").
		Ignorable("lu.update", "lu.pivot")
}

// LUModules assembles the module list for a mode. Distributed deployments
// run replicated (every element computes the full factorisation).
func LUModules(mode core.Mode) []*core.Module {
	switch mode {
	case core.Shared, core.Hybrid:
		return []*core.Module{LUSharedModule(), LUCheckpointModule()}
	default:
		return []*core.Module{LUCheckpointModule()}
	}
}
