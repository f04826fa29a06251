package core

import (
	"math"
	"time"

	"ppar/internal/mp"
	"ppar/internal/partition"
)

// Cross-rank dynamic rebalancing for the Task executor. Work stealing evens
// load out within a rank, but a rank whose deques run persistently dry (its
// partition is cheaper than its siblings') can only be helped by moving
// partition boundaries — whole chunks of the iteration space — between
// ranks. At every safe point the ranks allgather (wall time, owned
// iterations) samples of the partitioned loops they ran since the last
// decision; each rank then computes the SAME decision from the SAME data:
// skip while any sample is too small to trust or the imbalance is below
// threshold, otherwise cut every Block-partitioned field proportionally to
// the measured per-rank throughput, migrate the spans between old and new
// boundaries over the existing transport, and install the new cut points.
// Because the decision is a pure function of allgathered data, no extra
// coordination round is needed and the applied-rebalance count stays in
// lockstep on every rank — which is what lets RunStats expose it.

const (
	// rebalanceMinSample is the smallest per-rank loop time worth acting
	// on: below it the samples are noise and moving data costs more than
	// the imbalance does.
	rebalanceMinSample = 200 * time.Microsecond
	// rebalanceRatio is the slowest/fastest elapsed ratio that triggers a
	// move.
	rebalanceRatio = 1.25
	// rebalanceTag carries span migrations; like the halo tags it is fixed
	// (per-pair transfers are strictly ordered by the SPMD control flow).
	rebalanceTag = 0x3100
)

// maybeRebalance is the safe-point entry of the balancer: on rank control
// lines it runs the collective directly, inside regions the team master runs
// it between two team barriers (the commPhase shape), so the workers observe
// the moved data and boundaries afterwards.
func (c *Ctx) maybeRebalance() {
	if c.Procs() < 2 {
		return
	}
	if c.worker != nil {
		c.worker.Barrier()
		if c.worker.IsMaster() {
			c.rebalanceNow()
		}
		c.worker.Barrier()
		return
	}
	c.rebalanceNow()
}

// rebalanceNow runs one decision round on the rank's communicating line.
func (c *Ctx) rebalanceNow() {
	e := c.eng
	elapsed, iters := c.taskElapsed, c.taskIters
	c.taskElapsed, c.taskIters = 0, 0
	frames, err := c.comm.Allgather(mp.EncodeF64s([]float64{elapsed.Seconds(), float64(iters)}))
	c.must(err)
	parts := c.Procs()
	weights := make([]float64, parts)
	minEl, maxEl := math.MaxFloat64, 0.0
	for r := 0; r < parts; r++ {
		s := mp.DecodeF64s(frames[r])
		if len(s) != 2 {
			return
		}
		el, it := s[0], s[1]
		if el < rebalanceMinSample.Seconds() || it <= 0 {
			return // every rank sees the same samples and skips together
		}
		weights[r] = it / el
		minEl = math.Min(minEl, el)
		maxEl = math.Max(maxEl, el)
	}
	if maxEl < minEl*rebalanceRatio {
		return
	}
	applied := false
	for _, name := range c.fields.partitionedNames() {
		if c.fields.specs[name].Layout != partition.Block {
			continue // cyclic layouts already interleave; only Block moves
		}
		old, err := c.fields.layoutFor(name, parts)
		c.must(err)
		nb := proportionalBounds(old.N, parts, weights)
		if nb == nil || sameBounds(old, nb) {
			continue
		}
		c.transferSpans(name, old, nb)
		c.fields.setBounds(name, nb)
		applied = true
	}
	if applied {
		c.fields.rebalances.Add(1)
		if c.IsMasterRank() {
			e.recordRebalance()
		}
	}
}

// transferSpans moves the data between the old and the new Block boundaries
// of one field: each rank sends every span it owned that another rank now
// owns, then receives every span it now owns that another rank owned. All
// sends are posted before any receive (transports buffer, as in the halo
// exchange), so no pairwise ordering can deadlock; at most one span moves
// per (field, rank pair), so the fixed tag is unambiguous.
func (c *Ctx) transferSpans(name string, old partition.Layout, newBounds []int) {
	me := c.Rank()
	parts := old.Parts
	olo, ohi := old.Range(me)
	for s := 0; s < parts; s++ {
		if s == me {
			continue
		}
		a, b := max(olo, newBounds[s]), min(ohi, newBounds[s+1])
		if a >= b {
			continue
		}
		blk, err := c.fields.packSpan(name, a, b)
		c.must(err)
		c.must(c.comm.SendF64s(s, rebalanceTag, blk))
	}
	nlo, nhi := newBounds[me], newBounds[me+1]
	for s := 0; s < parts; s++ {
		if s == me {
			continue
		}
		slo, shi := old.Range(s)
		a, b := max(nlo, slo), min(nhi, shi)
		if a >= b {
			continue
		}
		blk, err := c.comm.RecvF64s(s, rebalanceTag)
		c.must(err)
		c.must(c.fields.unpackSpan(name, a, b, blk))
	}
}

// proportionalBounds cuts [0, n) into parts spans sized proportionally to
// the per-rank throughput weights, every part keeping at least one element.
// It is deterministic in its inputs — every rank feeds it the same
// allgathered weights and must produce the same cuts.
func proportionalBounds(n, parts int, weights []float64) []int {
	if n < parts {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil
	}
	b := make([]int, parts+1)
	cum := 0.0
	for r := 0; r < parts-1; r++ {
		cum += weights[r]
		b[r+1] = int(math.Round(float64(n) * cum / total))
	}
	b[parts] = n
	for r := 1; r < parts; r++ {
		// Clamp each cut into the window that leaves every part >= 1
		// element, keeping the cuts strictly increasing.
		if lo := r; b[r] < lo {
			b[r] = lo
		}
		if hi := n - (parts - r); b[r] > hi {
			b[r] = hi
		}
		if b[r] < b[r-1]+1 {
			b[r] = b[r-1] + 1
		}
	}
	return b
}

// sameBounds reports whether the new cut points match the layout's current
// division (explicit or even) — in which case there is nothing to move.
func sameBounds(l partition.Layout, bounds []int) bool {
	for p := 0; p < l.Parts; p++ {
		lo, hi := l.Range(p)
		if bounds[p] != lo || bounds[p+1] != hi {
			return false
		}
	}
	return true
}
