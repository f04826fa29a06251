package main

import (
	"math"
	"sync"

	"ppar/internal/serial"
	"ppar/pp"
)

// The benchmark owns its base programs so that it can timestamp its own
// ctx.Call / pp.ForSpan calls on the master line. They keep the method, loop
// and field names of their internal/jgf counterparts, so the stock module
// sets (jgf.SORModules, jgf.SparseModules) plug in unchanged.

// rng is the benchmark's only source of randomness: splitmix64 seeded from
// -seed, so the same seed gives the same inputs on every machine.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019}
	for _, c := range stream {
		r.s = (r.s ^ uint64(c)) * 0x100000001B3
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newGrid builds an n×n matrix over one flat backing array.
func newGrid(n int) [][]float64 {
	flat := make([]float64, n*n)
	g := make([][]float64, n)
	for i := range g {
		g[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return g
}

func seededGrid(n int, r *rng) [][]float64 {
	g := newGrid(n)
	for i := range g {
		for j := range g[i] {
			g[i][j] = r.float() * 1e-6
		}
	}
	return g
}

func copyGrid(src [][]float64) [][]float64 {
	g := newGrid(len(src))
	for i := range src {
		copy(g[i], src[i])
	}
	return g
}

// sameGrid compares bit patterns, so it also distinguishes -0 and NaNs.
func sameGrid(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameF64s(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// instances hands pre-built application inputs to the engine's factory, so
// input copying happens before the timer starts. Distributed executors call
// the factory from every rank's goroutine.
type instances[T any] struct {
	mu    sync.Mutex
	ready []T
	make  func() T
}

func (p *instances[T]) prepare(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ready) < n {
		p.ready = append(p.ready, p.make())
	}
}

func (p *instances[T]) take() T {
	p.mu.Lock()
	if n := len(p.ready); n > 0 {
		v := p.ready[n-1]
		p.ready = p.ready[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.make() // a migration builds more instances than were prepared
}

// --- SOR ------------------------------------------------------------------

const sorOmega = 1.25

// sorOut receives the master replica's final grid (a slice header, not a
// copy: verification happens after the timer stops).
type sorOut struct{ G [][]float64 }

type sorApp struct {
	G     [][]float64
	N     int
	Iters int

	rec *runRec
	out *sorOut
}

func (s *sorApp) Main(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	m.enterMain()
	i := m.begin("main")
	m.call(ctx, "sor.run", s.run)
	m.call(ctx, "sor.finish", s.finish)
	m.end(i)
}

func (s *sorApp) run(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	for it := 0; it < s.Iters; it++ {
		m.call(ctx, "sor.tick", noop)
		m.call(ctx, "sor.red", s.red)
		m.call(ctx, "sor.black", s.black)
		m.safePoint(ctx, "sor.iter")
	}
}

func (s *sorApp) red(ctx *pp.Ctx)   { s.sweep(ctx, 0) }
func (s *sorApp) black(ctx *pp.Ctx) { s.sweep(ctx, 1) }

func (s *sorApp) sweep(ctx *pp.Ctx, colour int) {
	m := s.rec.masterLine(ctx)
	f := m.begin("for:sor.rows")
	pp.ForSpan(ctx, "sor.rows", 1, s.N-1, func(lo, hi int) {
		b := m.begin("body:sor.rows")
		sorRows(s.G, s.N, lo, hi, colour)
		m.end(b)
	})
	m.end(f)
}

func sorRows(g [][]float64, n, lo, hi, colour int) {
	const omega, oneMinus = sorOmega, 1 - sorOmega
	for i := lo; i < hi; i++ {
		row := g[i]
		up, down := g[i-1], g[i+1]
		for j := 1 + (i+colour)%2; j < n-1; j += 2 {
			row[j] = omega*0.25*(up[j]+down[j]+row[j-1]+row[j+1]) + oneMinus*row[j]
		}
	}
}

func (s *sorApp) finish(*pp.Ctx) { s.out.G = s.G }

// sorPlain is the hand-written program: the same red-black sweeps as a plain
// nested loop, no engine anywhere. It is both the verification reference and
// the denominator of time_vs_handwritten.
func sorPlain(g [][]float64, iters int) {
	n := len(g)
	for it := 0; it < iters; it++ {
		sorRows(g, n, 1, n-1, 0)
		sorRows(g, n, 1, n-1, 1)
	}
}

// --- stripe ---------------------------------------------------------------

// stripeApp keeps a large, mostly stable float vector and rewrites one
// seed-chosen chunk of it per iteration — the state shape incremental
// checkpoints and content-addressed stores exist for.
type stripeApp struct {
	S     []float64
	Order []int // chunk rewritten at each iteration
	Iters int

	rec *runRec
	out *stripeOut
}

type stripeOut struct{ S []float64 }

// stripeRounds sizes the per-element work so one iteration's kernel is a few
// hundred microseconds: enough to overlap with the background writer.
const stripeRounds = 320

func (s *stripeApp) Main(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	m.enterMain()
	i := m.begin("main")
	m.call(ctx, "stripe.run", s.run)
	m.call(ctx, "stripe.finish", func(*pp.Ctx) { s.out.S = s.S })
	m.end(i)
}

func (s *stripeApp) run(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	for it := 0; it < s.Iters; it++ {
		it := it
		m.call(ctx, "stripe.rewrite", func(ctx *pp.Ctx) {
			m := s.rec.masterLine(ctx)
			lo := s.Order[it] * serial.DeltaChunkElems
			f := m.begin("for:stripe.elems")
			pp.ForSpan(ctx, "stripe.elems", lo, lo+serial.DeltaChunkElems, func(lo, hi int) {
				b := m.begin("body:stripe.elems")
				stripeRewrite(s.S, lo, hi, it)
				m.end(b)
			})
			m.end(f)
		})
		m.safePoint(ctx, "stripe.iter")
	}
}

func stripeRewrite(s []float64, lo, hi, it int) {
	k := float64(it%7+1) * 1e-3
	for i := lo; i < hi; i++ {
		x := s[i]
		for r := 0; r < stripeRounds; r++ {
			x = x*0.999 + k
		}
		s[i] = x
	}
}

func stripePlain(s []float64, order []int) {
	for it, c := range order {
		lo := c * serial.DeltaChunkElems
		stripeRewrite(s, lo, lo+serial.DeltaChunkElems, it)
	}
}

func stripeModules() []*pp.Module {
	return []*pp.Module{
		pp.NewModule("stripe/smp").
			ParallelMethod("stripe.run").
			LoopSchedule("stripe.elems", pp.Static, 1),
		pp.NewModule("stripe/ckpt").
			SafeData("S").
			SafePointAfter("stripe.iter").
			Ignorable("stripe.rewrite"),
	}
}

// --- sparse ---------------------------------------------------------------

// sparseApp is jgf.Sparse with timestamps: y += A·x repeated Iters times,
// with A in compressed-row storage. The matrix and x are shared read-only
// between instances; y is per instance.
type sparseApp struct {
	Val    []float64
	Col    []int
	RowPtr []int
	X      []float64
	Y      []float64
	N      int
	Iters  int

	rec *runRec
	out *sparseOut
}

type sparseOut struct{ Y []float64 }

func (s *sparseApp) Main(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	m.enterMain()
	i := m.begin("main")
	m.call(ctx, "sparse.run", s.run)
	m.call(ctx, "sparse.finish", func(*pp.Ctx) { s.out.Y = s.Y })
	m.end(i)
}

func (s *sparseApp) run(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	for it := 0; it < s.Iters; it++ {
		m.call(ctx, "sparse.mult", s.mult)
		m.safePoint(ctx, "sparse.iter")
	}
}

func (s *sparseApp) mult(ctx *pp.Ctx) {
	m := s.rec.masterLine(ctx)
	f := m.begin("for:sparse.rows")
	pp.ForSpan(ctx, "sparse.rows", 0, s.N, func(lo, hi int) {
		b := m.begin("body:sparse.rows")
		sparseRows(s.Val, s.Col, s.RowPtr, s.X, s.Y, lo, hi)
		m.end(b)
	})
	m.end(f)
}

func sparseRows(val []float64, col, rowPtr []int, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			sum += val[k] * x[col[k]]
		}
		y[i] += sum
	}
}
