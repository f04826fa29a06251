package core

import (
	"fmt"
	"time"

	"ppar/internal/serial"
)

// migrateToken unwinds a line of execution after the migration snapshot has
// been captured: like stopToken every line reaches the same safe point and
// unwinds together, but instead of returning from Run the engine tears the
// executor down and relaunches under the target mode.
type migrateToken struct{ sp uint64 }

// migrationSpec is the resolved in-process migration, published by the
// coordinator at the safe point and consumed by the executor loop. The
// canonical snapshot is handed over in memory as a deep copy: it shares no
// array with the old executor's live fields, and it never touches the
// user's configured Store (whose chain keeps serving crash restarts).
type migrationSpec struct {
	sp      uint64
	mode    Mode
	threads int
	procs   int
	snap    *serial.Snapshot // owned copy, the relaunch's replay source
	start   time.Time        // snapshot capture time, for Report.MigrationTotal
	// pending is the scheduled RequestAdapt/RequestStop target this
	// migration consumed, if it was pending-sourced: applyMigration clears
	// exactly that request (CAS) so a colliding request from another
	// source survives the relaunch and is re-scheduled after the replay.
	pending *AdaptTarget
}

// migrateCheckpoint performs an in-process cross-mode migration at safe
// point sp: the same collective save protocol as stopCheckpoint — barriers
// in shared memory, gather-at-master in distributed memory, asynchronous
// writer drained first so the regular chain stays consistent — except that
// the canonical snapshot is parked in memory for the relaunch, and the
// unwind relaunches the run instead of ending it (Figures 6 and 7 without
// the restart).
func (c *Ctx) migrateCheckpoint(sp uint64, t AdaptTarget, pending *AdaptTarget) {
	if !validMode(t.Mode) {
		panic(abortToken{msg: fmt.Sprintf("core: migration requests unknown mode %d", int(t.Mode))})
	}
	c.collectiveSave(
		func() { c.migrateSaveLocal(sp, t, pending) },
		func() { c.migrateSaveDist(sp, t, pending) },
	)
	panic(migrateToken{sp: sp})
}

// migrateSaveLocal captures the migration snapshot from this process's
// fields (the Sequential and Shared save protocol).
func (c *Ctx) migrateSaveLocal(sp uint64, t AdaptTarget, pending *AdaptTarget) {
	start := time.Now()
	c.drainAsync()
	snap, err := c.fields.snapshot(c.eng.cfg.AppName, "canonical", sp)
	c.must(err)
	c.publishMigration(sp, t, snap, start, pending)
}

// migrateSaveDist captures the migration snapshot with the gather-at-master
// protocol of §IV.A — the canonical form that "makes it possible to restart
// the application on any of the execution modes", which is exactly what the
// relaunch does. Every rank participates in the gathers; the master
// publishes.
func (c *Ctx) migrateSaveDist(sp uint64, t AdaptTarget, pending *AdaptTarget) {
	start := time.Now()
	c.gatherCanonical()
	if c.IsMasterRank() {
		c.drainAsync()
		snap, err := c.fields.snapshot(c.eng.cfg.AppName, "canonical", sp)
		c.must(err)
		c.publishMigration(sp, t, snap, start, pending)
	}
}

// publishMigration resolves the target topology and parks the snapshot for
// the executor loop. Unset sizes inherit the engine's remembered topology —
// and deliberately stay un-coerced for modes without the machinery: a
// Shared(8) run migrating to Distributed keeps Threads=8 remembered, so a
// later migration back to Shared with Threads unset lands on 8 again
// (executors simply ignore the sizes they have no machinery for). When a
// periodic checkpoint is due at this very safe point, the snapshot is also
// persisted through the regular sink: the migration unwinds before the
// ordinary dueAt save could run, and silently skipping a scheduled
// checkpoint would contradict the cadence counters policies rely on.
func (c *Ctx) publishMigration(sp uint64, t AdaptTarget, snap *serial.Snapshot, start time.Time, pending *AdaptTarget) {
	e := c.eng
	threads, procs := t.Threads, t.Procs
	if threads <= 0 {
		threads = int(e.curThreads.Load())
	}
	if procs <= 0 {
		procs = int(e.curProcs.Load())
	}
	if e.dueAt(sp) {
		c.must(e.sink.saveFull(snap))
		e.recordSave(time.Since(start), snap.DataBytes(), false)
	}
	e.migration.Store(&migrationSpec{
		sp: sp, mode: t.Mode, threads: threads, procs: procs,
		snap: snap.Clone(), start: start, pending: pending,
	})
}

// applyMigration moves the engine to the migration target between launches:
// the parked snapshot becomes the replay source, the topology becomes the
// target's, and the incremental-checkpoint tracker is re-based so the first
// periodic checkpoint under the new executor persists a full snapshot (the
// old chain's hashes described the old capture sequence).
func (e *Engine) applyMigration(m *migrationSpec) {
	e.resumeSnap = m.snap
	e.shardSnaps = nil
	e.replayTarget = m.sp
	e.curMode = m.mode
	e.curThreads.Store(int64(m.threads))
	e.curProcs.Store(int64(m.procs))
	e.liveMode.Store(int64(m.mode))
	if e.tracker != nil {
		e.tracker = newDeltaTracker(e.cfg.DeltaCompactEvery)
	}
	if e.ssink != nil {
		// Re-anchor every shard chain: the migration's replayed state is a
		// fresh capture sequence (and the world may have changed size).
		// The background pool was drained before the migration snapshot,
		// so no capture of the old topology is still in flight.
		e.ssink.rebase(m.procs)
	}
	// A request scheduled for the migration safe point itself never got its
	// turn (the migration unwound SafePoint first). Clear the schedule — and
	// the request only if this migration WAS that request — so a colliding
	// RequestAdapt/RequestStop from another source survives the relaunch
	// and is re-scheduled by the coordinator after the replay. A schedule
	// for a later safe point is left untouched and fires on time.
	e.scheduled.CompareAndSwap(m.sp, 0)
	if m.pending != nil {
		e.pending.CompareAndSwap(m.pending, nil)
	}
	e.repMu.Lock()
	e.report.Adapted = true
	e.report.Migrations++
	e.migStart = m.start
	e.repMu.Unlock()
	// The relaunch runs between launches on the engine's own goroutine, so
	// this is the coordinating line of execution by construction.
	e.notifyAdapt(m.sp)
}
