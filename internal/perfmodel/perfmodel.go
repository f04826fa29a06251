// Package perfmodel is the calibrated analytic cost model used to
// regenerate the paper's scaling figures for processing-element counts the
// host does not have (the paper used a 48-core, two-machine cluster; CI
// containers often expose a single core). The model's terms are exactly the
// effects the paper attributes its curves to:
//
//   - compute scales with min(PE, capacity) (Figures 3, 7, 8, 9),
//   - thread deployments cannot leave one machine (Figure 9),
//   - per-iteration synchronisation: a barrier for threads, a neighbour
//     halo exchange for processes — crossing machines when ranks do,
//   - checkpoint saving = gathering partitioned data at the root (paying
//     inter-machine links for far ranks, Figure 4) + disk,
//   - restart = replaying safe points (cheap) + loading and scattering the
//     data (Figure 5),
//   - over-decomposition = T tasks on PE elements paying per-task
//     scheduling and a T-wide barrier per iteration (Figure 8).
//
// Absolute values are calibrated to the same order of magnitude as the
// paper's testbed, but only the *shape* — who wins, by what factor, where
// curves cross — is claimed (see DESIGN.md, "Evaluation").
package perfmodel

import (
	"time"

	"ppar/internal/cluster"
)

// Model carries the platform parameters.
type Model struct {
	Top cluster.Topology
	// CellRate is the effective per-core stencil throughput in cell
	// updates per second (it folds flops, memory traffic and the JVM-era
	// overheads of the paper's testbed into one calibrated constant).
	CellRate float64
	// BarrierBase and BarrierPerPE model a central barrier.
	BarrierBase  time.Duration
	BarrierPerPE time.Duration
	// TaskSwitch is the cost of scheduling one surplus task (Figure 8).
	TaskSwitch time.Duration
	// SafePointCost is the counter increment of one safe point (<1% of an
	// iteration — the Figure 3 claim).
	SafePointCost time.Duration
	// RestartFixed is the engine teardown+relaunch cost of
	// adaptation-by-restart (Figure 7).
	RestartFixed time.Duration
}

// Paper returns the model calibrated to the paper's cluster (two 24-core
// Opteron machines; Figure 8's 16-PE SOR takes about 5 s).
func Paper() Model {
	return Model{
		Top:           cluster.PaperCluster(),
		CellRate:      5e6, // 16 PEs finish the 2000x2000, 100-sweep run in ~5s (Fig. 8)
		BarrierBase:   4 * time.Microsecond,
		BarrierPerPE:  600 * time.Nanosecond,
		TaskSwitch:    350 * time.Microsecond, // oversubscribed OS processes, not goroutines
		SafePointCost: 80 * time.Nanosecond,
		RestartFixed:  2500 * time.Millisecond, // JVM relaunch + job resubmission
	}
}

func dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// barrier models one barrier across pe parties.
func (m Model) barrier(pe int) time.Duration {
	return m.BarrierBase + time.Duration(pe)*m.BarrierPerPE
}

// effectivePE clamps pe to what the deployment can actually use: threads
// are confined to one machine, processes to the whole cluster.
func (m Model) effectivePE(pe int, dist bool) int {
	cap := m.Top.Cores
	if dist {
		cap = m.Top.TotalCores()
	}
	if pe > cap {
		return cap
	}
	if pe < 1 {
		return 1
	}
	return pe
}

// SweepTime models one red-black iteration (two colour sweeps) of an n×n
// SOR grid on pe processing elements.
func (m Model) SweepTime(n, pe int, dist bool) time.Duration {
	eff := m.effectivePE(pe, dist)
	cells := float64(n) * float64(n)
	compute := dur(cells / (m.CellRate * float64(eff)))
	if eff == 1 {
		return compute
	}
	if !dist {
		// Two colour sweeps, a barrier after each.
		return compute + 2*m.barrier(eff)
	}
	// Processes: halo exchange per colour with both neighbours; the link
	// is inter-machine for ranks at the machine boundary.
	// Two colour sweeps, each with a neighbour halo exchange; sends and
	// receives to the two sides overlap, so one worst-link round trip per
	// colour is charged.
	rowBytes := n * 8
	worstLink := m.Top.LinkCost(0, 1, rowBytes)
	if pe > m.Top.Cores {
		worstLink = m.Top.LinkCost(m.Top.Cores-1, m.Top.Cores, rowBytes)
	}
	return compute + 2*worstLink
}

// SORTime models a full run of iters iterations, including safe-point
// counting when counted is true.
func (m Model) SORTime(n, iters, pe int, dist, counted bool) time.Duration {
	t := time.Duration(iters) * m.SweepTime(n, pe, dist)
	if counted {
		t += time.Duration(iters) * m.SafePointCost
	}
	return t
}

// SaveTime models one checkpoint of dataBytes under each environment
// (Figure 4): sequential pays the disk; threads add two barriers; processes
// gather the partitioned data at the root first — blocks from the second
// machine pay the interconnect.
func (m Model) SaveTime(dataBytes, pe int, dist bool) time.Duration {
	disk := m.Top.DiskCost(dataBytes)
	if pe <= 1 {
		return disk
	}
	if !dist {
		return disk + 2*m.barrier(m.effectivePE(pe, false))
	}
	eff := m.effectivePE(pe, true)
	per := dataBytes / eff
	var gather time.Duration
	for r := 1; r < eff; r++ {
		gather += m.Top.LinkCost(r, 0, per)
	}
	return disk + gather
}

// RestartTime models recovery after a failure (Figure 5): replaying the
// counted safe points, then loading and (for processes) scattering the
// data. It returns the two components separately, as the figure does.
func (m Model) RestartTime(dataBytes, safePoints, pe int, dist bool) (replay, load time.Duration) {
	replay = time.Duration(safePoints) * (m.SafePointCost + 2*time.Microsecond)
	load = m.Top.DiskCost(dataBytes)
	if dist {
		eff := m.effectivePE(pe, true)
		per := dataBytes / max(eff, 1)
		for r := 1; r < eff; r++ {
			load += m.Top.LinkCost(0, r, per)
		}
	} else if pe > 1 {
		load += 2 * m.barrier(m.effectivePE(pe, false))
	}
	return replay, load
}

// OverDecompTime models SOR with factor-times over-decomposition: T =
// factor*pe tasks on pe elements; each iteration pays T-task scheduling and
// a T-wide barrier (Figure 8).
func (m Model) OverDecompTime(n, iters, pe, factor int) time.Duration {
	base := m.SORTime(n, iters, pe, true, false)
	if factor <= 1 {
		return base
	}
	tasks := pe * factor
	perIter := time.Duration(tasks)*m.TaskSwitch + m.barrier(tasks)
	return base + time.Duration(iters)*perIter
}

// AdaptExpandTime models Figure 7: run the first half on `from` LE and the
// second half on `to` LE, switching either at run time (team resize: one
// region replay of the already-executed safe points, cheap) or by
// checkpoint-restart (save + teardown + replay + load).
func (m Model) AdaptExpandTime(n, iters, from, to int, byRestart bool) time.Duration {
	half := iters / 2
	first := m.SORTime(n, half, from, false, true)
	second := m.SORTime(n, iters-half, to, false, true)
	dataBytes := n * n * 8
	if byRestart {
		save := m.SaveTime(dataBytes, from, false)
		replay, load := m.RestartTime(dataBytes, half, to, false)
		return first + save + m.RestartFixed + replay + load + second
	}
	// Run-time adaptation: new threads replay the region's safe points.
	joinReplay := time.Duration(half) * m.SafePointCost * time.Duration(to-from)
	return first + m.barrier(to) + joinReplay + second
}

// AdaptiveTime models the Figure 9 "Adaptative" line: the pluggable version
// picks the best execution mode for the committed resources and pays a
// small plumbing overhead (measured <5% in §V).
func (m Model) AdaptiveTime(n, iters, pe int) time.Duration {
	best := m.SORTime(n, iters, pe, false, true)
	if d := m.SORTime(n, iters, pe, true, true); d < best {
		best = d
	}
	return best + best/25 // 4% plumbing
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
