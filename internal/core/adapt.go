package core

import (
	"ppar/internal/ckpt"
	"ppar/internal/team"
)

func newJoinReplay(target uint64) *ckpt.Replay { return ckpt.NewReplay(target) }

// In-place reshaping constraints, reported by the executors' ResizeErr.
// Each names the in-process migration path (AdaptTarget.Mode) where it
// applies.
const (
	seqCannotResizeMsg = "core: Sequential mode cannot adapt in place (it has no machinery); " +
		"migrate in-process to another mode with AdaptTarget.Mode, use Shared with Threads=1, or adaptation by restart"
	smpCannotResizeWorldMsg = "core: shared mode has no world to resize; " +
		"migrate in-process to Distributed or Hybrid with AdaptTarget.Mode, or use adaptation by restart"
	hybridCannotResizeMsg = "core: hybrid mode supports run-time thread adaptation, in-process migration " +
		"(AdaptTarget.Mode) and restart-based adaptation, not in-place world resizing"
	tcpCannotResizeMsg = "core: the TCP transport has a fixed world size; use the in-process transport, " +
		"an in-process migration (AdaptTarget.Mode, which rebuilds the transport), or adaptation by restart"
	taskCannotResizeWorldMsg = "core: task mode supports run-time thread adaptation and in-process migration " +
		"(AdaptTarget.Mode), not in-place world resizing — its balancer moves work between the existing ranks instead"
	relaunchNeedsCadenceMsg = "core: an asynchronous world resize (RequestAdapt with Procs) is a relaunch aligned to " +
		"the checkpoint cadence, and this run has no due checkpoint left; set one (WithCheckpointEvery, within " +
		"MaxCheckpoints) or resize at a fixed safe point with an AdaptAt policy"
)

// adaptNow applies an in-place adaptation at safe point sp. Inside a region
// it reshapes the thread team; at rank level it reshapes the world. Targets
// the executor cannot honour abort the run loudly. (Targets with a
// different Mode never reach this point — SafePoint routes them to
// migrateCheckpoint.)
func (c *Ctx) adaptNow(sp uint64, t AdaptTarget) {
	e := c.eng
	if t.Threads > 0 || t.Procs > 0 {
		if err := e.exec.ResizeErr(t, c.Procs()); err != nil {
			panic(abortToken{msg: err.Error()})
		}
	}
	if c.worker != nil {
		if t.Threads > 0 {
			c.adaptThreads(sp, t.Threads)
		}
		return
	}
	if c.comm != nil && t.Procs > 0 {
		c.adaptProcs(sp, t.Procs)
	}
}

// adaptThreads implements §IV.B for shared memory. Expansion: new workers
// are spawned, replay the region (skipping ignorable methods and loop
// bodies) up to the current safe point, then join the team at a resize
// barrier — "each thread will get the call stack that it would have if the
// program ran with concurrency activated from the start". Contraction:
// surplus workers retire at the resize barrier and run empty operations to
// the region end — "shutdown is made gracefully by executing methods with
// empty operations until the thread gets to the end of the parallel
// region". Thread-local values of new workers are seeded from the master
// ("thread local variables are updated with the value of the main thread").
func (c *Ctx) adaptThreads(sp uint64, m int) {
	e := c.eng
	w := c.worker
	w.Barrier() // entry rendezvous: every worker is at safe point sp
	if !w.IsMaster() {
		w.Barrier() // pairs with the master's resize barrier
		return
	}

	n := w.Team().Size()
	if m == n {
		w.MasterResize(n) // still a barrier so the others stay paired
		return
	}
	if m > n {
		// The join object is team-local: in hybrid deployments every
		// rank's team adapts concurrently and must not share state.
		join := &smpJoin{ready: make(chan *Ctx, m-n), gate: make(chan struct{}), sp: sp}
		regionSP := sp - c.regionStartSp
		for i := 0; i < m-n; i++ {
			w.Team().Spawn(func(nw *team.Worker) {
				jc := c.cloneForJoin(nw, regionSP, join)
				if tok := e.guard(func() { c.regionFn(jc) }); tok != nil {
					e.noteToken(tok)
				}
			})
		}
		joined := make([]*Ctx, 0, m-n)
		for len(joined) < m-n {
			joined = append(joined, <-join.ready)
		}
		w.MasterResize(m)
		tls := w.TLSSnapshot()
		for _, jc := range joined {
			for k, v := range tls {
				jc.worker.SetTLS(k, v)
			}
			jc.spCount = sp
			jc.worker.AlignSeqs(w)
			jc.worker.SetReplaying(false)
		}
		close(join.gate)
	} else {
		w.MasterResize(m)
	}
	e.curThreads.Store(int64(m))
	e.recordAdapted()
	if c.IsMasterRank() {
		e.notifyAdapt(sp)
	}
}

// completeJoin is reached when a replaying line of execution has counted
// enough safe points. Team joiners hand themselves to the master and wait
// at the gate; world joiners take part in the data handoff (the scatter of
// partitioned fields and broadcast of replicated fields that the incumbents
// perform on their side of the protocol).
func (c *Ctx) completeJoin() {
	if c.worker != nil {
		if c.joinVia == nil {
			panic("core: worker completed join replay with no active expansion")
		}
		c.joinVia.ready <- c
		<-c.joinVia.gate
		return
	}
	// World joiner: the incumbents are executing the matching collectives
	// inside adaptProcs.
	for _, f := range c.fields.partitionedNames() {
		c.must(c.fields.scatterFrom(f, c.comm, 0, c.Procs()))
	}
	for _, f := range c.fields.replicatedNames() {
		c.must(c.fields.bcastField(f, c.comm, 0))
	}
	c.spCount = c.join.Target()
}

// Control-message byte values for the world-resize protocol.
const (
	ctlResized = byte(1)
	ctlRetire  = byte(2)
	ctlTag     = 0x3F0F
)

// adaptProcs implements §IV.B for distributed memory. The state of the
// aggregate is first merged at element 0 using the partition information;
// the world is resized; new replicas replay to the adaptation safe point;
// finally the partitioned state is redistributed under the new layout.
// Contraction retires the surplus replicas after the merge — "there are
// remote data that must migrate to the local node".
func (c *Ctx) adaptProcs(sp uint64, m int) {
	e := c.eng
	n := c.Procs()
	c.must(c.comm.Barrier())
	if e.sw != nil && m != n && c.IsMasterRank() {
		// A world resize changes every shard's packed shape: drain the
		// background pool so no old-world capture is folded with (or
		// written after) a new-world one. The sink itself re-anchors
		// lazily at the first capture under the new world.
		c.drainAsync()
	}
	// Merge: collect every partitioned field at element 0.
	for _, f := range c.fields.partitionedNames() {
		c.must(c.fields.gatherAt(f, c.comm, 0, n))
	}
	if c.IsMasterRank() {
		if m != n {
			c.must(c.comm.Group().Resize(m))
		}
		for r := n; r < m; r++ {
			c.must(e.exec.Spawn(e, r, c.comm.Seq(), sp))
		}
		// Tell the other incumbents the resize is visible.
		for r := 1; r < n; r++ {
			flag := ctlResized
			if r >= m {
				flag = ctlRetire
			}
			c.must(c.comm.Send(r, ctlTag, []byte{flag}))
		}
	} else {
		msg, err := c.comm.Recv(0, ctlTag)
		c.must(err)
		if len(msg) == 1 && msg[0] == ctlRetire {
			c.retiredRank = true
			return // empty operations to the end of Main
		}
	}
	// Redistribute under the new layout; the joiners execute the matching
	// collectives in completeJoin.
	for _, f := range c.fields.partitionedNames() {
		c.must(c.fields.scatterFrom(f, c.comm, 0, c.Procs()))
	}
	for _, f := range c.fields.replicatedNames() {
		c.must(c.fields.bcastField(f, c.comm, 0))
	}
	if m != n {
		e.curProcs.Store(int64(m))
		e.recordAdapted()
		if c.IsMasterRank() {
			e.notifyAdapt(sp)
		}
	}
}
