package ckpt

import (
	"fmt"
	"sync"
)

// FaultOp names one Store operation class for fault injection.
type FaultOp int

// Operation classes a FaultStore can inject faults into.
const (
	OpSave FaultOp = iota
	OpSaveDelta
	OpSaveShardDelta
	OpSaveManifest
	OpLoad
	OpLoadChain
	OpLoadShardDelta
	OpLoadManifest
	OpClearDeltas
	OpClearShardDeltas
	OpPutChunk
	OpGetChunk
	OpReleaseChunks
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case OpSave:
		return "Save"
	case OpSaveDelta:
		return "SaveDelta"
	case OpSaveShardDelta:
		return "SaveShardDelta"
	case OpSaveManifest:
		return "SaveManifest"
	case OpLoad:
		return "Load"
	case OpLoadChain:
		return "LoadChain"
	case OpLoadShardDelta:
		return "LoadShardDelta"
	case OpLoadManifest:
		return "LoadManifest"
	case OpClearDeltas:
		return "ClearDeltas"
	case OpClearShardDeltas:
		return "ClearShardDeltas"
	case OpPutChunk:
		return "PutChunk"
	case OpGetChunk:
		return "GetChunk"
	case OpReleaseChunks:
		return "ReleaseChunks"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// ErrInjectedFault is the error a FaultStore returns from an operation it
// was armed to fail.
type ErrInjectedFault struct {
	Op FaultOp
	N  int
}

func (e *ErrInjectedFault) Error() string {
	return fmt.Sprintf("ckpt: injected fault: %s call %d failed", e.Op, e.N)
}

// FaultStore is a Store for fault-injection tests: a Mem (so every load
// exercises the real decode path) with the layout's fault hook wired. It
// can fail the Nth call of any operation class with
// an injected error, or simulate a TORN WRITE on the Nth save — the write
// "succeeds" but persists only a truncated prefix of the container, the
// way a crash mid-write without atomic rename would. Torn snapshots and
// deltas must be detected at load time by the container checksums and, for
// deltas, truncate the chain at the damaged link rather than half-applying
// it — the invariant the checkpoint path's crash-safety tests pin down.
//
// Counters are 1-based: Arm(OpSave, 2, ...) fails the second Save. A
// FaultStore is safe for concurrent use, like any Store.
type FaultStore struct {
	Mem
	mu     sync.Mutex
	counts [numFaultOps]int
	failAt [numFaultOps]int
	tearAt [numFaultOps]int
}

var _ Store = (*FaultStore)(nil)

// NewFault creates an empty FaultStore with no faults armed.
func NewFault() *FaultStore {
	s := &FaultStore{Mem: Mem{m: newMemBlobs()}}
	s.layout = layout{b: s.m, fault: s.step}
	return s
}

// Arm makes the Nth call (1-based, counted from now) of op fail with an
// *ErrInjectedFault. Arming with n <= 0 disarms the class.
func (s *FaultStore) Arm(op FaultOp, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt[op] = s.offset(op, n)
}

// ArmTorn makes the Nth call (1-based, counted from now) of a save-class
// op report success while persisting only half the encoded container.
func (s *FaultStore) ArmTorn(op FaultOp, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tearAt[op] = s.offset(op, n)
}

func (s *FaultStore) offset(op FaultOp, n int) int {
	if n <= 0 {
		return 0
	}
	return s.counts[op] + n
}

// Disarm clears every armed fault; stored snapshots survive.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt = [numFaultOps]int{}
	s.tearAt = [numFaultOps]int{}
}

// Ops reports how many calls of op have been made so far (including the
// failed and torn ones) — used to size exhaustive every-Nth-call sweeps.
func (s *FaultStore) Ops(op FaultOp) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[op]
}

// step is the layout's fault hook: it counts one call of op and reports
// whether it must fail or tear.
func (s *FaultStore) step(op FaultOp) (fail error, tear bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[op]++
	if s.failAt[op] == s.counts[op] {
		return &ErrInjectedFault{Op: op, N: s.counts[op]}, false
	}
	return nil, s.tearAt[op] == s.counts[op]
}
