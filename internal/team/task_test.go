package team

import (
	"sync/atomic"
	"testing"
)

// taskCovers runs one ForTask loop on a fresh team and checks every index is
// executed exactly once, whatever the steal interleaving.
func taskCovers(t *testing.T, size, nchunks, lo, hi int) {
	t.Helper()
	tm := New(size)
	counts := make([]atomic.Int64, hi-lo)
	tm.Run(func(w *Worker) {
		w.ForTask(lo, hi, nchunks, func(a, b int) {
			if a >= b {
				t.Errorf("empty span [%d,%d)", a, b)
			}
			for i := a; i < b; i++ {
				counts[i-lo].Add(1)
			}
		})
		w.Barrier() // ForTask has no implicit barrier; drain before exit
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("size=%d nchunks=%d: index %d executed %d times", size, nchunks, lo+i, c)
		}
	}
}

// Invariant: work stealing changes who executes a chunk, never whether it
// executes — every iteration runs exactly once.
func TestForTaskCoversExactlyOnce(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		for _, nchunks := range []int{1, 4, 16, 100, 1000} {
			taskCovers(t, size, nchunks, 0, 100)
			taskCovers(t, size, nchunks, 5, 7)
		}
	}
}

func TestForTaskMoreWorkersThanIterations(t *testing.T) {
	taskCovers(t, 8, 32, 0, 3)
	taskCovers(t, 4, 4, 0, 1)
}

func TestForTaskEmptyRange(t *testing.T) {
	tm := New(4)
	ran := atomic.Int64{}
	tm.Run(func(w *Worker) {
		w.ForTask(3, 3, 8, func(a, b int) { ran.Add(1) })
		w.Barrier()
	})
	if ran.Load() != 0 {
		t.Fatalf("empty range ran %d spans", ran.Load())
	}
	if chunks, _, _ := tm.TaskCounters(); chunks != 0 {
		t.Fatalf("empty range counted %d chunks", chunks)
	}
}

// The chunk counter equals the (clamped) chunk count, accumulated across
// consecutive loops, and a single-worker team never steals.
func TestForTaskCounters(t *testing.T) {
	tm := New(1)
	tm.Run(func(w *Worker) {
		w.ForTask(0, 100, 16, func(a, b int) {})
		w.Barrier()
		w.ForTask(0, 10, 64, func(a, b int) {}) // clamped to 10 chunks
		w.Barrier()
	})
	chunks, steals, _ := tm.TaskCounters()
	if chunks != 16+10 {
		t.Fatalf("chunks=%d want %d", chunks, 16+10)
	}
	if steals != 0 {
		t.Fatalf("single worker stole %d chunks", steals)
	}
}

// Skewed spans: one chunk carries almost all the work. With
// overdecomposition the idle workers must steal it away from their busy
// peers' deques; the loop still covers the range exactly once and the sum is
// deterministic.
func TestForTaskSkewedStealing(t *testing.T) {
	const n, iters = 256, 20
	tm := New(4)
	var sum atomic.Int64
	tm.Run(func(w *Worker) {
		for it := 0; it < iters; it++ {
			w.ForTask(0, n, 8*4, func(a, b int) {
				local := int64(0)
				for i := a; i < b; i++ {
					cost := 1
					if i < n/8 {
						cost = 400 // hot head
					}
					for k := 0; k < cost; k++ {
						local += int64(i%7) + 1
					}
				}
				sum.Add(local)
			})
			w.Barrier()
		}
	})
	want := int64(0)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			cost := 1
			if i < n/8 {
				cost = 400
			}
			want += int64(cost) * int64(i%7+1)
		}
	}
	if got := sum.Load(); got != want {
		t.Fatalf("sum=%d want %d", got, want)
	}
	chunks, _, _ := tm.TaskCounters()
	if chunks != int64(iters*8*4) {
		t.Fatalf("chunks=%d want %d", chunks, iters*8*4)
	}
}

// A worker joining or retiring mid-run must stay aligned with loops it did
// not execute: ForTask participates in the loop-sequence accounting like For.
func TestForTaskAfterResize(t *testing.T) {
	tm := New(3)
	counts := make([]atomic.Int64, 120)
	tm.Run(func(w *Worker) {
		w.ForTask(0, 60, 12, func(a, b int) {
			for i := a; i < b; i++ {
				counts[i].Add(1)
			}
		})
		if w.IsMaster() {
			w.MasterResize(2)
		} else {
			w.Barrier()
		}
		// Workers beyond the new size are retired and must skip the loop
		// without consuming chunks.
		w.ForTask(60, 120, 12, func(a, b int) {
			for i := a; i < b; i++ {
				counts[i].Add(1)
			}
		})
		w.Barrier()
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d executed %d times across the resize", i, c)
		}
	}
}
