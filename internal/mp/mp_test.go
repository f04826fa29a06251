package mp

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// transports to exercise in every collective test.
func withTransports(t *testing.T, n int, fn func(t *testing.T, tr Transport)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		tr := NewInProc(n, nil)
		defer tr.Close()
		fn(t, tr)
	})
	t.Run("tcp", func(t *testing.T) {
		tr, err := NewTCP(n, nil)
		if err != nil {
			t.Fatalf("NewTCP: %v", err)
		}
		defer tr.Close()
		fn(t, tr)
	})
}

func TestSendRecv(t *testing.T) {
	withTransports(t, 2, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 2)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 7, []byte("hello"))
			}
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(got) != "hello" {
				return fmt.Errorf("got %q", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecvMatchesTagOutOfOrder(t *testing.T) {
	withTransports(t, 2, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 2)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 1, []byte("first")); err != nil {
					return err
				}
				return c.Send(1, 2, []byte("second"))
			}
			// Receive in reverse tag order.
			b2, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			b1, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if string(b1) != "first" || string(b2) != "second" {
				return fmt.Errorf("got %q %q", b1, b2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierAllArrive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		withTransports(t, n, func(t *testing.T, tr Transport) {
			w := NewWorld(tr, n)
			var before atomic.Int64
			err := w.Run(func(c *Comm) error {
				for round := 1; round <= 5; round++ {
					before.Add(1)
					if err := c.Barrier(); err != nil {
						return err
					}
					if got := before.Load(); got < int64(round*n) {
						return fmt.Errorf("rank %d round %d released early: before=%d", c.Rank(), round, got)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				tr := NewInProc(n, nil)
				defer tr.Close()
				w := NewWorld(tr, n)
				err := w.Run(func(c *Comm) error {
					var payload []byte
					if c.Rank() == root {
						payload = []byte{1, 2, 3, byte(root)}
					}
					got, err := c.Bcast(root, payload)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got, []byte{1, 2, 3, byte(root)}) {
						return fmt.Errorf("rank %d got %v", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestGatherScatter(t *testing.T) {
	withTransports(t, 4, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 4)
		err := w.Run(func(c *Comm) error {
			mine := []byte{byte(c.Rank())}
			parts, err := c.Gather(2, mine)
			if err != nil {
				return err
			}
			if c.Rank() == 2 {
				for r := 0; r < 4; r++ {
					if len(parts[r]) != 1 || parts[r][0] != byte(r) {
						return fmt.Errorf("gather parts[%d]=%v", r, parts[r])
					}
					parts[r] = []byte{byte(r * 10)}
				}
			}
			got, err := c.Scatter(2, parts)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != byte(c.Rank()*10) {
				return fmt.Errorf("rank %d scatter got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllgather(t *testing.T) {
	withTransports(t, 5, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 5)
		err := w.Run(func(c *Comm) error {
			mine := []byte(fmt.Sprintf("r%d", c.Rank()))
			all, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			for r := 0; r < 5; r++ {
				if string(all[r]) != fmt.Sprintf("r%d", r) {
					return fmt.Errorf("rank %d: all[%d]=%q", c.Rank(), r, all[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduceAllreduce(t *testing.T) {
	withTransports(t, 4, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 4)
		sum := func(a, b float64) float64 { return a + b }
		err := w.Run(func(c *Comm) error {
			v := []float64{float64(c.Rank()), 1}
			red, err := c.ReduceF64s(0, v, sum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if red[0] != 6 || red[1] != 4 {
					return fmt.Errorf("reduce got %v", red)
				}
			} else if red != nil {
				return fmt.Errorf("non-root got %v", red)
			}
			all, err := c.AllreduceF64s(v, sum)
			if err != nil {
				return err
			}
			if all[0] != 6 || all[1] != 4 {
				return fmt.Errorf("allreduce got %v", all)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConsecutiveCollectivesNoCrosstalk(t *testing.T) {
	tr := NewInProc(3, nil)
	defer tr.Close()
	w := NewWorld(tr, 3)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 20; i++ {
			var payload []byte
			if c.Rank() == 0 {
				payload = []byte{byte(i)}
			}
			got, err := c.Bcast(0, payload)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				return fmt.Errorf("round %d: got %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKillFailsCommunication(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("rank 1 should be dead")
	}
	if err := tr.Send(0, 1, 1, nil); !errors.Is(err, ErrDead) {
		t.Fatalf("send to dead rank: %v", err)
	}
	if _, err := tr.Recv(1, 0, 1); !errors.Is(err, ErrDead) {
		t.Fatalf("recv on dead rank: %v", err)
	}
}

func TestKillUnblocksReceiver(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv(1, 0, 5)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tr.Kill(1)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDead) {
			t.Fatalf("recv returned %v, want ErrDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv did not unblock after kill")
	}
}

func TestWorldPanicBecomesError(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	w := NewWorld(tr, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking rank did not surface as error")
	}
}

func TestGroupResizeAndLaunch(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	w := NewWorld(tr, 2)
	var total atomic.Int64
	err := w.Run(func(c *Comm) error {
		// Phase 1: world of 2.
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Expand to 4: incumbent rank 0 resizes and launches the
			// newcomers with the current collective seq.
			if err := c.Group().Resize(4); err != nil {
				return err
			}
			for r := 2; r < 4; r++ {
				w.Launch(r, c.Seq(), func(nc *Comm) error {
					v := []float64{float64(nc.Rank())}
					out, err := nc.AllreduceF64s(v, func(a, b float64) float64 { return a + b })
					if err != nil {
						return err
					}
					total.Add(int64(out[0]))
					return nil
				})
			}
		} else {
			// Rank 1 must not race ahead of the resize; in the real
			// engine this is sequenced by the safe-point barrier.
			for c.Size() != 4 {
				time.Sleep(time.Millisecond)
			}
		}
		for c.Size() != 4 {
			time.Sleep(time.Millisecond)
		}
		v := []float64{float64(c.Rank())}
		out, err := c.AllreduceF64s(v, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		total.Add(int64(out[0]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0+1+2+3 = 6 observed by 4 ranks.
	if total.Load() != 24 {
		t.Fatalf("total = %d, want 24", total.Load())
	}
}

func TestTCPGrowRefused(t *testing.T) {
	tr, err := NewTCP(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Grow(4); err == nil {
		t.Fatal("TCP Grow succeeded, want error")
	}
	if err := tr.Grow(2); err != nil {
		t.Fatalf("TCP Grow to current size should be a no-op: %v", err)
	}
}

func TestDelayFuncApplied(t *testing.T) {
	var calls atomic.Int64
	tr := NewInProc(2, func(from, to, n int) time.Duration {
		calls.Add(1)
		return 0
	})
	defer tr.Close()
	w := NewWorld(tr, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("x"))
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("delay function never consulted")
	}
}

func TestEncodeDecodeF64sRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		return reflect.DeepEqual(DecodeF64s(EncodeF64s(v)), v) || len(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Allreduce(max) equals the max over all rank inputs, for any
// world size 1..6.
func TestQuickAllreduceMax(t *testing.T) {
	f := func(vals [6]float64, n8 uint8) bool {
		n := int(n8%6) + 1
		tr := NewInProc(n, nil)
		defer tr.Close()
		w := NewWorld(tr, n)
		want := vals[0]
		for r := 1; r < n; r++ {
			if vals[r] > want {
				want = vals[r]
			}
		}
		ok := atomic.Bool{}
		ok.Store(true)
		err := w.Run(func(c *Comm) error {
			out, err := c.AllreduceF64s([]float64{vals[c.Rank()]}, func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			})
			if err != nil {
				return err
			}
			if out[0] != want {
				ok.Store(false)
			}
			return nil
		})
		return err == nil && ok.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The typed collectives deliver the same values over both transports; on
// the in-process one they hand each slice itself over (no copy, no bytes).
func TestGatherScatterF64s(t *testing.T) {
	withTransports(t, 3, func(t *testing.T, tr Transport) {
		_, typed := tr.(f64Transport)
		sent := make([][]float64, 3)
		w := NewWorld(tr, 3)
		err := w.Run(func(c *Comm) error {
			mine := []float64{float64(c.Rank()), 0.5}
			sent[c.Rank()] = mine
			parts, err := c.GatherF64s(1, mine)
			if err != nil {
				return err
			}
			if c.Rank() == 1 {
				for r, p := range parts {
					if len(p) != 2 || p[0] != float64(r) || p[1] != 0.5 {
						return fmt.Errorf("gather parts[%d]=%v", r, p)
					}
					if typed && &p[0] != &sent[r][0] {
						return fmt.Errorf("in-process gather copied rank %d's slice instead of handing it over", r)
					}
					parts[r] = []float64{float64(10 * r)}
				}
			}
			got, err := c.ScatterF64s(1, parts)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != float64(10*c.Rank()) {
				return fmt.Errorf("rank %d scatter got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// A typed message charges the DelayFunc its wire size, 8 bytes per float,
// once — the traffic the performance model and traces see does not depend
// on the transport.
func TestTypedSendChargesWireBytes(t *testing.T) {
	var msgs, nbytes atomic.Int64
	tr := NewInProc(2, func(from, to, n int) time.Duration {
		msgs.Add(1)
		nbytes.Add(int64(n))
		return 0
	})
	defer tr.Close()
	w := NewWorld(tr, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendF64s(1, 1, make([]float64, 5))
		}
		_, err := c.RecvF64s(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs.Load() != 1 || nbytes.Load() != 40 {
		t.Fatalf("DelayFunc saw %d messages / %d bytes, want 1 / 40", msgs.Load(), nbytes.Load())
	}
}

// A typed send to a killed rank fails with ErrDead, exactly as a byte send
// does; failure injection relies on it.
func TestTypedSendToKilledRankIsDead(t *testing.T) {
	tr := NewInProc(2, nil)
	defer tr.Close()
	g := NewGroup(tr, 2)
	tr.Kill(1)
	if err := NewComm(g, 0).SendF64s(1, 1, []float64{1}); !errors.Is(err, ErrDead) {
		t.Fatalf("typed send to a dead rank: %v, want ErrDead", err)
	}
	if _, err := NewComm(g, 1).RecvF64s(0, 1); !errors.Is(err, ErrDead) {
		t.Fatalf("typed recv on a dead rank: %v, want ErrDead", err)
	}
	if _, err := NewComm(g, 0).GatherF64s(1, nil); !errors.Is(err, ErrDead) {
		t.Fatalf("typed gather to a dead root: %v, want ErrDead", err)
	}
}

// A receiver that asks for the other form still gets the values: a typed
// message read as bytes is its EncodeF64s form, and the reverse.
func TestTypedAndByteFormsInterconvert(t *testing.T) {
	withTransports(t, 2, func(t *testing.T, tr Transport) {
		w := NewWorld(tr, 2)
		v := []float64{1.5, -2}
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.SendF64s(1, 1, append([]float64(nil), v...)); err != nil {
					return err
				}
				return c.Send(1, 2, EncodeF64s(v))
			}
			b, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(DecodeF64s(b), v) {
				return fmt.Errorf("typed message read as bytes: %v", b)
			}
			f, err := c.RecvF64s(0, 2)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(f, v) {
				return fmt.Errorf("byte message read typed: %v", f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
