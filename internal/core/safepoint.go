package core

import (
	"fmt"
	"time"

	"ppar/internal/ckpt"
	"ppar/internal/serial"
)

// SafePoint marks a point in execution where a checkpoint can be taken and
// adaptation requests are serviced (§IV.A). In normal execution it costs
// one counter increment plus three atomic loads — the paper measures this
// as "less than 1% in most cases" (Figure 3). During replay it only counts
// progress toward the saved target.
func (c *Ctx) SafePoint() {
	if c.Retired() {
		//lint:ignore ppcollective §IV.B graceful shutdown: retired lines run empty operations to the region end, and every collective below passes retired workers through
		return
	}
	if c.join.Active() {
		if c.join.Step() {
			c.completeJoin()
			// The incumbents finish the activation safe point with the
			// Task-mode rebalance round and the periodic checkpoint when
			// one is due. A freshly joined line of execution must take part
			// in those collectives too — their barriers and gathers are
			// sized for the grown team — or the cohorts desync one phase
			// apart and deadlock.
			if c.eng.curMode == Task && c.comm != nil {
				c.maybeRebalance()
			}
			if sp := c.spCount; c.eng.dueAt(sp) {
				c.checkpoint(sp)
			}
		}
		return
	}
	if c.restart.Active() {
		if c.restart.Step() {
			c.loadAtTarget()
		}
		return
	}
	c.spCount++
	sp := c.spCount
	e := c.eng

	// Surface background checkpoint-write failures at the next safe point
	// the coordinator reaches, rather than only at engine exit.
	if c.isCoordinator() {
		e.liveSP.Store(sp)
		if err := e.takeAsyncErr(); err != nil {
			c.must(fmt.Errorf("async checkpoint write failed: %w", err))
		}
	}

	if e.cfg.FailAtSafePoint == sp && c.failHere() {
		e.failed.Store(true)
		panic(failToken{sp: sp, rank: c.Rank()})
	}
	// Policy-driven adaptation: Decide is a pure function of deterministic
	// run stats, so every line of execution (and, in hybrid deployments,
	// every rank's team) triggers independently without shared mutable
	// state. A target whose Mode differs from the running executor's is an
	// in-process migration; one naming the current mode (or none) is an
	// in-place reshaping.
	fired := false
	if p := e.cfg.Policy; p != nil {
		switch t := p.Decide(c.runStats(sp)); {
		case t.Stop:
			c.stopCheckpoint(sp)
		case t.Mode != 0 && t.Mode != e.curMode:
			c.migrateCheckpoint(sp, t, nil)
		case !t.IsZero():
			c.adaptNow(sp, t)
			fired = true
		}
	}
	if at := e.scheduled.Load(); at != 0 && at == sp {
		// Dynamically scheduled request (RequestAdapt / RequestStop /
		// context cancellation path).
		if t := e.pending.Load(); t != nil && !fired {
			switch {
			case t.Stop:
				c.stopCheckpoint(sp)
			case t.Mode != 0 && t.Mode != e.curMode:
				c.migrateCheckpoint(sp, *t, t)
			case c.relaunchResize(*t):
				rt := *t
				rt.Mode = e.curMode
				c.migrateCheckpoint(sp, rt, t)
			default:
				c.adaptNow(sp, *t)
			}
		}
	} else if c.isCoordinator() {
		switch {
		case at == 0:
			if e.cancelled.Load() && e.pending.Load() == nil {
				// Context cancellation / RequestStop turns into a
				// scheduled checkpoint-and-stop request.
				e.pending.Store(&AdaptTarget{Stop: true})
			}
			if t := e.pending.Load(); t != nil {
				// Schedule for the NEXT safe point: every other thread
				// is guaranteed to observe the schedule before reaching
				// it, because consecutive safe points are separated by
				// a team barrier (the loop advice inserts one per
				// sweep).
				//
				// That guarantee covers thread teams only. Comm-coupled
				// ranks synchronise at collectives, not safe points —
				// buffered sends let a rank race far ahead of the
				// coordinator — so a stop or migration request is
				// aligned to the checkpoint cadence instead: at a due
				// safe point every rank takes the identical canonical
				// gather, so the stop/migration gather of the ranks
				// that saw the request is wire-compatible with the
				// periodic gather of any rank that had already raced
				// past it, and the collected snapshot is consistent.
				// (In shard mode the cadence collective is a barrier,
				// so the service point goes one past it — the barrier
				// orders the schedule before every rank's arrival.)
				// Racing ranks that never see the request unwind when
				// the master tears the transport down on its way out
				// (worldCore.rankMain). A world resize would strand
				// such a rank in place — its peers wait for it in the
				// resize barrier — so it is serviced as a same-mode
				// relaunch and aligned like a migration. With no due
				// checkpoint to align to, the relaunch gather could
				// take a racing rank's end-of-run rows, so the resize
				// is refused instead. Thread resizes keep the sp+1
				// schedule.
				at := sp + 1
				if c.comm != nil && (t.Stop || (t.Mode != 0 && t.Mode != e.curMode) || c.relaunchResize(*t)) {
					if due := e.nextDueAfter(sp); due != 0 {
						at = due
						if e.cfg.ShardCheckpoints {
							at = due + 1
						}
					} else if !t.Stop && (t.Mode == 0 || t.Mode == e.curMode) {
						// Neither a stop nor a migration: the world resize.
						panic(abortToken{msg: relaunchNeedsCadenceMsg})
					}
				}
				e.scheduled.CompareAndSwap(0, at)
			}
		case sp > at:
			// The scheduled point has passed on every thread (team
			// lockstep); clear the dynamic state so a future
			// RequestAdapt can be scheduled.
			e.scheduled.Store(0)
			e.pending.Store(nil)
		}
	}
	// Task-mode cross-rank rebalancing runs before any periodic checkpoint,
	// so a due snapshot captures the post-move boundaries. The gate is the
	// same on every rank and thread (mode and topology are engine state), as
	// the collective inside requires.
	if e.curMode == Task && c.comm != nil {
		c.maybeRebalance()
	}
	if e.dueAt(sp) {
		c.checkpoint(sp)
	}
}

// relaunchResize reports whether an asynchronously requested target is a
// same-mode world resize this executor can honour. Ranks synchronise at
// collectives, not safe points, so an in-place resize at a scheduled safe
// point would strand any rank that had already run past it; such a target
// is serviced as an in-process migration into the same mode instead, and
// refused when no checkpoint is due to align it to (targets the executor
// rejects fall through to adaptNow, which aborts loudly).
func (c *Ctx) relaunchResize(t AdaptTarget) bool {
	if c.comm == nil || t.Procs <= 0 || (t.Mode != 0 && t.Mode != c.eng.curMode) {
		return false
	}
	n := c.Procs()
	return t.Procs != n && c.eng.exec.ResizeErr(t, n) == nil
}

// runStats assembles the deterministic policy view at safe point sp. Every
// field is identical on every line of execution at the same safe point, as
// AdaptPolicy.Decide requires.
func (c *Ctx) runStats(sp uint64) RunStats {
	e := c.eng
	fulls, deltas, last := e.ckptCadence(sp)
	return RunStats{
		SafePoint:        sp,
		Mode:             e.curMode,
		Threads:          c.Threads(),
		Procs:            c.Procs(),
		Restarted:        e.restarted,
		FullSaves:        fulls,
		DeltaSaves:       deltas,
		LastCheckpointSP: last,
		Overdecompose:    e.cfg.Overdecompose,
		Rebalances:       int(c.fields.rebalances.Load()),
	}
}

// failHere decides whether this line of execution hosts the injected
// failure: the configured rank in distributed modes; every team thread (the
// process dies as a whole) in shared mode.
func (c *Ctx) failHere() bool {
	if c.comm != nil {
		return c.Rank() == c.eng.cfg.FailRank
	}
	return true
}

// isCoordinator reports whether this line of execution services the
// adaptation request queue: the master thread of rank 0.
func (c *Ctx) isCoordinator() bool {
	return c.IsMasterRank() && c.IsMasterThread()
}

// collectiveSave runs a save protocol under the mode-specific §IV.A
// synchronisation — the skeleton shared by periodic checkpoints, stop
// snapshots and migration snapshots. In shared memory (and hybrid) "we
// introduce a barrier before and another after the safe point. When all
// threads have reached the first barrier the master thread saves the data";
// on comm-active control lines the distributed leaf runs, elsewhere the
// local one.
func (c *Ctx) collectiveSave(local, dist func()) {
	switch {
	case c.worker != nil:
		c.worker.Barrier()
		if c.worker.IsMaster() {
			if c.commActive() {
				dist()
			} else {
				local()
			}
		}
		c.worker.Barrier()
	case c.commActive():
		dist()
	default:
		local()
	}
}

// gatherCanonical collects every partitioned field at the master rank — the
// collective half of the gather-at-master snapshot protocol. All ranks
// participate; afterwards the master's field copies are fully populated.
func (c *Ctx) gatherCanonical() {
	for _, f := range c.fields.partitionedNames() {
		c.must(c.fields.gatherAt(f, c.comm, 0, c.Procs()))
	}
}

// checkpoint runs the mode-specific save protocol of §IV.A at safe point
// sp. With AsyncCheckpoint the master only captures the double buffer
// between the barriers; the encode+persist overlaps computation.
func (c *Ctx) checkpoint(sp uint64) {
	c.collectiveSave(
		func() { c.localSave(sp, true) },
		func() { c.distSave(sp) },
	)
}

// localSave writes a canonical snapshot from this process's fields. With no
// store configured (a context-cancelled run without checkpointing) it is a
// no-op: the run still stops gracefully, it just leaves nothing to replay.
// periodic selects the configured pipeline (delta diffing and/or the
// asynchronous double buffer); checkpoint-and-stop saves pass false — a
// stop snapshot is the restart point and must be a full snapshot on stable
// storage before the run unwinds.
func (c *Ctx) localSave(sp uint64, periodic bool) {
	if c.eng.store == nil {
		return
	}
	start := time.Now()
	snap, err := c.fields.snapshot(c.eng.cfg.AppName, c.eng.curMode.String(), sp)
	c.must(err)
	if periodic {
		c.persistCanonical(snap, start)
		return
	}
	c.must(c.eng.sink.saveFull(snap))
	c.eng.recordSave(time.Since(start), snap.DataBytes(), false)
}

// persistCanonical routes one periodic canonical snapshot through the
// configured checkpoint pipeline: the delta tracker decides full vs
// incremental capture (and keeps the hash cache current), and the capture
// is either persisted synchronously under the barrier or handed to the
// background writer. Delta captures in the asynchronous path clone only
// the changed chunks — the bandwidth win the incremental pipeline exists
// for; full captures clone the whole snapshot as before.
func (c *Ctx) persistCanonical(snap *serial.Snapshot, start time.Time) {
	e := c.eng
	async := e.aw != nil
	full, delta := snap, (*serial.Delta)(nil)
	if e.tracker != nil {
		full, delta = e.tracker.capture(snap, async)
	} else if async {
		// Capture: deep-copy the named fields so computation can mutate
		// the live arrays the moment the barrier releases.
		full = snap.Clone()
	}
	switch {
	case async && full != nil:
		// Account the capture BEFORE handing it over: the background writer
		// owns it from the submit on and recycles its storage after writing.
		bytes := full.DataBytes()
		e.aw.submitFull(full)
		e.recordCapture(time.Since(start), bytes)
	case async:
		bytes := delta.DataBytes()
		e.aw.submitDelta(delta)
		e.recordCapture(time.Since(start), bytes)
	case full != nil:
		c.must(e.sink.saveFull(full))
		e.recordSave(time.Since(start), full.DataBytes(), false)
	default:
		c.must(e.sink.saveDelta(delta))
		e.recordSave(time.Since(start), delta.DataBytes(), true)
	}
}

// distSave implements the two distributed alternatives of §IV.A: local
// shards between two global barriers, or collection of partitioned data at
// the master — the latter "has the advantage of making it possible to
// restart the application on any of the execution modes". The shard path
// now keeps that advantage too: every shard records its field layouts, so
// a manifest-committed save repartitions into any mode at restart.
func (c *Ctx) distSave(sp uint64) {
	e := c.eng
	start := time.Now()
	if e.cfg.ShardCheckpoints {
		c.must(c.comm.Barrier())
		snap, err := c.fields.shardSnapshot(e.cfg.AppName, sp, c.Rank(), c.Procs())
		c.must(err)
		async := e.sw != nil
		cap := e.ssink.capture(c.Rank(), c.Procs(), e.curMode.String(), snap, async)
		capBytes := cap.dataBytes()
		if async {
			// Double-buffered per rank: only the capture happens between
			// the barriers; the bounded pool persists the links and commits
			// the wave's manifest in the background (and owns — then
			// recycles — the capture from the submit on).
			e.sw.submit(cap)
		} else {
			// Every rank persists its own link concurrently between the
			// barriers; whichever write completes the wave commits the
			// manifest, so the commit record is always written last.
			c.must(e.ssink.write(cap))
		}
		c.must(c.comm.Barrier())
		if c.IsMasterRank() {
			if async {
				e.recordCapture(time.Since(start), capBytes)
			} else {
				e.recordShardBlocked(time.Since(start), capBytes)
			}
		}
		return
	}
	c.gatherCanonical()
	if c.IsMasterRank() {
		snap, err := c.fields.snapshot(e.cfg.AppName, "canonical", sp)
		c.must(err)
		c.persistCanonical(snap, start)
	}
}

// stopCheckpoint takes a canonical snapshot and stops the run — the
// adaptation-by-restart path (Figures 6 and 7). All lines of execution
// reach the same safe point and unwind together. Stop snapshots are always
// written synchronously — they are the restart point — after draining the
// asynchronous writer, so an older in-flight snapshot can never land on
// top of them.
func (c *Ctx) stopCheckpoint(sp uint64) {
	c.collectiveSave(
		func() {
			c.drainAsync()
			c.localSave(sp, false)
		},
		func() { c.stopSaveDist(sp) },
	)
	panic(stopToken{sp: sp})
}

// drainAsync blocks until the background checkpoint machinery (canonical
// writer or shard pool) is idle, surfacing any write error it was holding.
func (c *Ctx) drainAsync() {
	e := c.eng
	if e.aw == nil && e.sw == nil {
		return
	}
	start := time.Now()
	var err error
	if e.aw != nil {
		err = e.aw.drain()
	}
	if e.sw != nil {
		if serr := e.sw.drain(); err == nil {
			err = serr
		}
	}
	e.recordDrain(time.Since(start))
	if err != nil {
		c.must(fmt.Errorf("async checkpoint write failed: %w", err))
	}
}

// takeAsyncErr collects (and clears) the first background write error from
// whichever asynchronous pipeline is active, without waiting.
func (e *Engine) takeAsyncErr() error {
	if e.aw != nil {
		if err := e.aw.takeErr(); err != nil {
			return err
		}
	}
	if e.sw != nil {
		if err := e.sw.takeErr(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Ctx) stopSaveDist(sp uint64) {
	if c.eng.store == nil {
		return // all ranks agree: stop without a snapshot
	}
	start := time.Now()
	c.gatherCanonical()
	if c.IsMasterRank() {
		c.drainAsync()
		snap, err := c.fields.snapshot(c.eng.cfg.AppName, "canonical", sp)
		c.must(err)
		c.must(c.eng.sink.saveFull(snap))
		c.eng.recordSave(time.Since(start), snap.DataBytes(), false)
	}
}

// loadAtTarget restores the checkpointed data once replay reaches the saved
// safe-point count (§IV.A, Fig. 2b step 4). The restore protocol mirrors
// the save protocol of each mode.
func (c *Ctx) loadAtTarget() {
	e := c.eng
	replayDone := time.Now()
	target := c.restart.Target()
	switch {
	case c.worker != nil:
		// "A barrier is introduced after the safe point where the
		// checkpoint was taken. The master thread reads the saved data
		// when reaching that safe point and then releases the other
		// threads waiting at the barrier."
		c.worker.Barrier()
		if c.worker.IsMaster() {
			start := time.Now()
			if c.commActive() {
				c.distLoad()
			} else {
				c.must(c.fields.restore(c.mustSnap()))
			}
			if c.IsMasterRank() {
				e.recordLoad(replayDone, time.Since(start))
			}
		}
		c.worker.Barrier()
	case c.commActive():
		start := time.Now()
		c.distLoad()
		if c.IsMasterRank() {
			e.recordLoad(replayDone, time.Since(start))
		}
	default:
		start := time.Now()
		c.must(c.fields.restore(c.mustSnap()))
		e.recordLoad(replayDone, time.Since(start))
	}
	c.spCount = target
}

// mustSnap returns the canonical snapshot found at start-up (materialising
// it from the store — base plus delta chain — if the engine deferred that).
func (c *Ctx) mustSnap() *serial.Snapshot {
	e := c.eng
	if e.resumeSnap != nil {
		return e.resumeSnap
	}
	snap, found, err := ckpt.LoadResume(e.store, e.cfg.AppName)
	c.must(err)
	if !found {
		panic(abortToken{msg: fmt.Sprintf("core: replay reached target %d but no canonical snapshot exists", c.restart.Target())})
	}
	return snap
}

// distLoad restores a distributed run: from the canonical snapshot (rank 0
// loads, partitioned fields are scattered, replicated fields broadcast —
// "the data must be scattered across processors after being loaded",
// Figure 5) or from per-rank shards.
func (c *Ctx) distLoad() {
	e := c.eng
	if e.shardSnaps != nil {
		c.must(c.fields.restoreShard(e.shardSnaps[c.Rank()], c.Rank(), c.Procs()))
		c.must(c.comm.Barrier())
		return
	}
	if c.IsMasterRank() {
		c.must(c.fields.restore(c.mustSnap()))
	}
	for _, f := range c.fields.partitionedNames() {
		c.must(c.fields.scatterFrom(f, c.comm, 0, c.Procs()))
	}
	for _, f := range c.fields.replicatedNames() {
		c.must(c.fields.bcastField(f, c.comm, 0))
	}
}
