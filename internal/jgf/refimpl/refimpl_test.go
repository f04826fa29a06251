package refimpl

import (
	"testing"
	"time"
)

func TestAllVariantsAgree(t *testing.T) {
	const n, iters = 36, 7
	ref := Sequential(n, iters)
	if ref == 0 {
		t.Fatal("zero reference")
	}
	for _, nt := range []int{1, 2, 5} {
		if got := Threads(n, iters, nt); got != ref {
			t.Errorf("Threads(%d) = %v, want %v", nt, got, ref)
		}
	}
	for _, np := range []int{1, 2, 4} {
		got, err := MPI(n, iters, np, nil)
		if err != nil {
			t.Fatalf("MPI(%d): %v", np, err)
		}
		if got != ref {
			t.Errorf("MPI(%d) = %v, want %v", np, got, ref)
		}
	}
}

func TestThreadsMoreThreadsThanRows(t *testing.T) {
	ref := Sequential(8, 3)
	if got := Threads(8, 3, 16); got != ref {
		t.Errorf("Threads(16) on tiny grid = %v, want %v", got, ref)
	}
}

// Threads' barrier holds up under many rounds with more threads than
// cores: a fast thread re-arriving for the next sweep must never take a
// slower peer's release. The grid must match Sequential bit for bit, and a
// wedged barrier fails the test instead of hanging it.
func TestThreadsBarrierManyRounds(t *testing.T) {
	const n, iters, nthreads = 16, 2000, 8
	want := Sequential(n, iters)
	for rep := 0; rep < 10; rep++ {
		got := make(chan float64, 1)
		go func() { got <- Threads(n, iters, nthreads) }()
		select {
		case g := <-got:
			if g != want {
				t.Fatalf("call %d: Threads = %v, want %v", rep, g, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d: Threads(%d, %d, %d) wedged in its barrier", rep, n, iters, nthreads)
		}
	}
}
