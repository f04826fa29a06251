package team

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestBarrierReleasesTogether(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var before, after atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				before.Add(1)
				b.Wait()
				// Everyone must have incremented before anyone proceeds.
				if got := before.Load(); got < int64((round+1)*n) {
					t.Errorf("round %d: released with before=%d", round, got)
					return
				}
				after.Add(1)
				b.Wait()
			}
		}()
	}
	wg.Wait()
	if before.Load() != n*100 || after.Load() != n*100 {
		t.Fatalf("counts %d/%d", before.Load(), after.Load())
	}
}

func TestBarrierPhaseNumbers(t *testing.T) {
	b := NewBarrier(2)
	var wg sync.WaitGroup
	phases := make([][]uint64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				phases[id] = append(phases[id], b.Wait())
			}
		}(i)
	}
	wg.Wait()
	for r := 0; r < 10; r++ {
		if phases[0][r] != uint64(r) || phases[1][r] != uint64(r) {
			t.Fatalf("round %d: phases %d,%d", r, phases[0][r], phases[1][r])
		}
	}
}

func TestBarrierResizeGrow(t *testing.T) {
	b := NewBarrier(2)
	done := make(chan struct{})
	go func() {
		b.Wait() // phase 0 with 2 parties
		b.Wait() // phase 1 with 3 parties
		close(done)
	}()
	var applied atomic.Bool
	b.WaitResize(3, func() { applied.Store(true) })
	if !applied.Load() {
		t.Fatal("resize apply did not run")
	}
	if got := b.Parties(); got != 3 {
		t.Fatalf("parties = %d, want 3", got)
	}
	// Third party joins for phase 1.
	go func() { b.Wait() }()
	b.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never released after grow")
	}
}

func TestTeamRunAllWorkers(t *testing.T) {
	tm := New(4)
	var ids sync.Map
	tm.Run(func(w *Worker) {
		ids.Store(w.ID(), true)
		if w.ID() == 0 && !w.IsMaster() {
			t.Error("worker 0 is not master")
		}
	})
	for i := 0; i < 4; i++ {
		if _, ok := ids.Load(i); !ok {
			t.Errorf("worker %d never ran", i)
		}
	}
}

func forCovers(t *testing.T, size int, sched Schedule, chunk, lo, hi int) {
	t.Helper()
	tm := New(size)
	counts := make([]atomic.Int64, hi-lo+1)
	tm.Run(func(w *Worker) {
		w.For(lo, hi, sched, chunk, func(a, b int) {
			if a >= b {
				t.Errorf("empty span [%d,%d)", a, b)
			}
			for i := a; i < b; i++ {
				counts[i-lo].Add(1)
			}
		})
	})
	for i := lo; i < hi; i++ {
		if c := counts[i-lo].Load(); c != 1 {
			t.Errorf("size=%d sched=%v chunk=%d: index %d executed %d times", size, sched, chunk, i, c)
		}
	}
}

// Invariant: every schedule executes each iteration exactly once.
func TestForCoversExactlyOnce(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7} {
		for _, sched := range []Schedule{Static, StaticChunk, Dynamic, Guided} {
			for _, chunk := range []int{1, 3, 16} {
				forCovers(t, size, sched, chunk, 0, 100)
				forCovers(t, size, sched, chunk, 5, 7)
				forCovers(t, size, sched, chunk, 3, 3) // empty
			}
		}
	}
}

func TestForMoreWorkersThanIterations(t *testing.T) {
	forCovers(t, 7, Static, 1, 0, 3)
	forCovers(t, 7, Dynamic, 2, 0, 3)
}

func TestConsecutiveLoopsStayAligned(t *testing.T) {
	tm := New(3)
	var sum atomic.Int64
	tm.Run(func(w *Worker) {
		for round := 0; round < 20; round++ {
			w.For(0, 50, Dynamic, 4, func(a, b int) {
				for i := a; i < b; i++ {
					sum.Add(int64(i))
				}
			})
			w.Barrier()
		}
	})
	want := int64(20 * (49 * 50 / 2))
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	tm.mu.Lock()
	leaked := len(tm.loops)
	tm.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d loop states leaked", leaked)
	}
}

func TestSingleRunsOnce(t *testing.T) {
	tm := New(5)
	var count atomic.Int64
	tm.Run(func(w *Worker) {
		for i := 0; i < 10; i++ {
			w.Single(func() { count.Add(1) })
			w.Barrier()
		}
	})
	if count.Load() != 10 {
		t.Fatalf("single ran %d times, want 10", count.Load())
	}
	tm.mu.Lock()
	leaked := len(tm.singles)
	tm.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d single states leaked", leaked)
	}
}

func TestMasterOnly(t *testing.T) {
	tm := New(4)
	var ran sync.Map
	tm.Run(func(w *Worker) {
		w.Master(func() { ran.Store(w.ID(), true) })
	})
	n := 0
	ran.Range(func(k, v any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("master block ran on %d workers", n)
	}
	if _, ok := ran.Load(0); !ok {
		t.Fatal("master block did not run on worker 0")
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	tm := New(6)
	var inside atomic.Int64
	var max atomic.Int64
	tm.Run(func(w *Worker) {
		for i := 0; i < 50; i++ {
			w.Critical("c", func() {
				cur := inside.Add(1)
				if cur > max.Load() {
					max.Store(cur)
				}
				inside.Add(-1)
			})
		}
	})
	if max.Load() != 1 {
		t.Fatalf("max concurrency in critical = %d", max.Load())
	}
}

func TestCriticalDifferentNamesIndependent(t *testing.T) {
	tm := New(2)
	// Two different critical names must not deadlock when nested in
	// opposite order... we simply check both run.
	var a, b atomic.Int64
	tm.Run(func(w *Worker) {
		w.Critical("a", func() { a.Add(1) })
		w.Critical("b", func() { b.Add(1) })
	})
	if a.Load() != 2 || b.Load() != 2 {
		t.Fatalf("a=%d b=%d", a.Load(), b.Load())
	}
}

func TestTLS(t *testing.T) {
	tm := New(4)
	var mu sync.Mutex
	got := map[int]int{}
	tm.Run(func(w *Worker) {
		v := w.TLS("acc", func() any { return new(int) }).(*int)
		for i := 0; i < 100; i++ {
			*v++ // no synchronisation needed: thread-local
		}
		mu.Lock()
		got[w.ID()] = *v
		mu.Unlock()
	})
	for id, v := range got {
		if v != 100 {
			t.Errorf("worker %d accumulated %d", id, v)
		}
	}
}

// Shrink: resize 4 -> 2 at a barrier; retired workers run "empty
// operations" (no loop iterations) to region end; remaining work is
// redistributed over 2 workers.
func TestShrinkAtBarrier(t *testing.T) {
	tm := New(4)
	var phase2 sync.Map
	tm.Run(func(w *Worker) {
		w.For(0, 8, Static, 1, func(a, b int) {})
		if w.IsMaster() {
			w.MasterResize(2)
		} else {
			w.Barrier()
		}
		// Workers 2,3 are retired now.
		w.For(0, 8, Static, 1, func(a, b int) {
			for i := a; i < b; i++ {
				if _, dup := phase2.LoadOrStore(i, w.ID()); dup {
					t.Errorf("iteration %d executed twice", i)
				}
			}
		})
		w.Barrier() // only 2 parties now; retired ones skip
	})
	count := 0
	phase2.Range(func(k, v any) bool {
		count++
		if v.(int) >= 2 {
			t.Errorf("retired worker %v executed iteration %v", v, k)
		}
		return true
	})
	if count != 8 {
		t.Fatalf("phase-2 iterations executed: %d, want 8", count)
	}
	if tm.Size() != 2 {
		t.Fatalf("team size = %d, want 2", tm.Size())
	}
}

// Grow: resize 2 -> 4; new workers replay (skipping loops) then join.
func TestGrowAtBarrier(t *testing.T) {
	tm := New(2)
	var phase2 sync.Map
	region := func(w *Worker) {
		w.For(0, 8, Static, 1, func(a, b int) {
			if w.Replaying() {
				t.Error("replaying worker executed a loop body")
			}
		})
		if w.IsMaster() {
			ready := make(chan *Worker, 2)
			for i := 0; i < 2; i++ {
				tm.Spawn(func(nw *Worker) {
					// Replay: the new worker consumes the loop
					// instance without executing, then signals.
					nw.For(0, 8, Static, 1, func(a, b int) {
						t.Error("replay executed body")
					})
					ready <- nw
					// Wait for activation then continue below.
					for nw.Replaying() {
						time.Sleep(time.Millisecond)
					}
					afterJoin(nw, &phase2)
				})
			}
			nws := []*Worker{<-ready, <-ready}
			w.MasterResize(4)
			for _, nw := range nws {
				nw.SetReplaying(false)
			}
		} else {
			w.Barrier()
		}
		afterJoin(w, &phase2)
	}
	tm.Run(region)
	count := 0
	workers := map[int]bool{}
	phase2.Range(func(k, v any) bool {
		count++
		workers[v.(int)] = true
		return true
	})
	if count != 8 {
		t.Fatalf("phase-2 iterations: %d, want 8", count)
	}
	if len(workers) != 4 {
		t.Fatalf("phase-2 used %d workers (%v), want 4", len(workers), workers)
	}
	if tm.Size() != 4 {
		t.Fatalf("team size = %d, want 4", tm.Size())
	}
}

func afterJoin(w *Worker, rec *sync.Map) {
	w.For(0, 8, Static, 1, func(a, b int) {
		for i := a; i < b; i++ {
			if _, dup := rec.LoadOrStore(i, w.ID()); dup {
				// duplicate iteration
				rec.Store(-i, w.ID())
			}
		}
	})
	w.Barrier()
}

func TestStaticSpanProperties(t *testing.T) {
	f := func(size8, lo16, n16 uint8) bool {
		size := int(size8%8) + 1
		lo := int(lo16)
		hi := lo + int(n16)
		covered := 0
		prevHi := lo
		for id := 0; id < size; id++ {
			a, b := StaticSpan(id, size, lo, hi)
			if a < prevHi || b < a || b > hi {
				return false
			}
			covered += b - a
			if b > a {
				prevHi = b
			}
		}
		return covered == hi-lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScheduleString(t *testing.T) {
	for s, want := range map[Schedule]string{Static: "static", StaticChunk: "static-chunk", Dynamic: "dynamic", Guided: "guided"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestInvalidSizes(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero team", func() { New(0) })
	mustPanic("zero barrier", func() { NewBarrier(0) })
}
