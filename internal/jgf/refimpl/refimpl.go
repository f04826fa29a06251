// Package refimpl provides hand-written SOR ports in the style of the three
// stock JGF distributions the paper's Figure 9 compares against:
//
//   - Sequential: a plain nested loop ("does not scale to more than one
//     node ... it always has the same execution time").
//   - Threads: goroutine work-sharing fixed at construction ("can only use
//     [the cores of] a single machine").
//   - MPI: SPMD over the mp substrate with a fixed world ("imposes a fixed
//     parallelism structure, i.e., the structure cannot change during
//     execution", §II).
//
// None of them can change execution mode at run time — that is the paper's
// point, and the Adaptive column of Figure 9 is the pluggable version from
// package jgf.
package refimpl

import (
	"fmt"
	"slices"
	"sync"

	"ppar/internal/mp"
	"ppar/internal/partition"
)

func newGrid(n int) [][]float64 {
	g := make([][]float64, n)
	r := uint64(101)
	for i := range g {
		g[i] = make([]float64, n)
		for j := range g[i] {
			r = r*6364136223846793005 + 1442695040888963407
			g[i][j] = float64(r>>11) / float64(1<<53) * 1e-6
		}
	}
	return g
}

func gtotal(g [][]float64) float64 {
	total := 0.0
	for i := range g {
		for _, v := range g[i] {
			total += v
		}
	}
	return total
}

func sweepRows(g [][]float64, n, lo, hi, colour int, omega float64) {
	oneMinus := 1 - omega
	for i := lo; i < hi; i++ {
		if i < 1 || i >= n-1 {
			continue
		}
		row := g[i]
		up, down := g[i-1], g[i+1]
		for j := 1 + (i+colour)%2; j < n-1; j += 2 {
			row[j] = omega*0.25*(up[j]+down[j]+row[j-1]+row[j+1]) + oneMinus*row[j]
		}
	}
}

// Sequential is the stock single-threaded SOR.
func Sequential(n, iters int) float64 {
	g := newGrid(n)
	for it := 0; it < iters; it++ {
		sweepRows(g, n, 1, n-1, 0, 1.25)
		sweepRows(g, n, 1, n-1, 1, 1.25)
	}
	return gtotal(g)
}

// Threads is the stock thread-parallel SOR: a fixed pool of nthreads
// goroutines with a barrier per colour sweep.
func Threads(n, iters, nthreads int) float64 {
	g := newGrid(n)
	var wg sync.WaitGroup
	bar := newBarrier(nthreads)
	rowsPer := (n + nthreads - 1) / nthreads
	for t := 0; t < nthreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo := t * rowsPer
			hi := lo + rowsPer
			if hi > n {
				hi = n
			}
			for it := 0; it < iters; it++ {
				sweepRows(g, n, lo, hi, 0, 1.25)
				bar.wait()
				sweepRows(g, n, lo, hi, 1, 1.25)
				bar.wait()
			}
		}(t)
	}
	wg.Wait()
	return gtotal(g)
}

// barrier is a reusable generation-counted barrier, hand-rolled so the port
// stays honest to the JGF thread version without importing the team
// substrate. The last of n arrivals opens the current generation, so a fast
// thread re-arriving for the next sweep waits on the next generation and
// can never take a slower peer's release.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, here int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	if b.here++; b.here == b.n {
		b.here = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// MPI is the stock message-passing SOR: block rows, halo exchange per
// colour, gather at rank 0. The world size is fixed for the whole run.
func MPI(n, iters, nprocs int, delay mp.DelayFunc) (float64, error) {
	tr := mp.NewInProc(nprocs, delay)
	defer tr.Close()
	world := mp.NewWorld(tr, nprocs)
	layout := partition.New(partition.Block, n, nprocs)
	var result float64
	err := world.Run(func(c *mp.Comm) error {
		g := newGrid(n)
		lo, hi := layout.Range(c.Rank())
		below, above := -1, -1
		if lo < hi {
			below, above = layout.Neighbours(c.Rank())
		}
		const tagDown, tagUp, tagGather = 1, 2, 3
		// The sent edge rows are copies: SendF64s hands its slice to the
		// receiver, and the live rows change in the next sweep.
		halo := func() error {
			if lo >= hi {
				return nil
			}
			if below >= 0 {
				if err := c.SendF64s(below, tagDown, slices.Clone(g[lo])); err != nil {
					return err
				}
			}
			if above >= 0 {
				if err := c.SendF64s(above, tagUp, slices.Clone(g[hi-1])); err != nil {
					return err
				}
			}
			if below >= 0 {
				row, err := c.RecvF64s(below, tagUp)
				if err != nil {
					return err
				}
				copy(g[lo-1], row)
			}
			if above >= 0 {
				row, err := c.RecvF64s(above, tagDown)
				if err != nil {
					return err
				}
				copy(g[hi], row)
			}
			return nil
		}
		for it := 0; it < iters; it++ {
			for colour := 0; colour < 2; colour++ {
				if err := halo(); err != nil {
					return err
				}
				sweepRows(g, n, lo, hi, colour, 1.25)
			}
		}
		// Gather owned rows at rank 0.
		flat := make([]float64, 0, (hi-lo)*n)
		for i := lo; i < hi; i++ {
			flat = append(flat, g[i]...)
		}
		parts, err := c.GatherF64s(0, flat)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < nprocs; r++ {
				rlo, rhi := layout.Range(r)
				vals := parts[r]
				for i := rlo; i < rhi; i++ {
					copy(g[i], vals[(i-rlo)*n:(i-rlo+1)*n])
				}
			}
			result = gtotal(g)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("refimpl: mpi run: %w", err)
	}
	return result, nil
}
