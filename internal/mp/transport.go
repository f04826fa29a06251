// Package mp implements the distributed-memory execution substrate of
// pluggable parallelisation: an MPI-like message-passing runtime. The
// paper's object aggregates (§III.C) — one instance per node, SPMD calls,
// scatter/gather/update of partitioned data — and the distributed checkpoint
// protocols (§IV.A) are built on the communicator defined here.
//
// Two transports are provided. The in-process transport runs each rank as a
// goroutine with its own application instance and delivers messages through
// channels; it simulates a multi-node cluster inside one process and
// supports dynamic world resizing (needed by §IV.B run-time adaptation).
// The TCP transport runs ranks over loopback sockets with length-prefixed
// frames, demonstrating that the same code paths work across real process
// boundaries; its world size is fixed once established (adaptation across
// TCP worlds goes through the core's in-process migration, which rebuilds
// the transport, or through the checkpoint/restart path, exactly like the
// paper's Figure 6).
//
// Partitioned field data moves as float64 slices (SendF64s, GatherF64s,
// ScatterF64s). On the in-process transport the slice itself is handed to
// the receiving rank — ranks share one address space, so there is nothing
// to encode — and ownership passes with it: the sender must not touch the
// slice again. The TCP transport has a wire, so it sends the EncodeF64s
// bytes instead. Either way the message counts as 8·len(v) bytes.
//
// An optional delay function models the paper's two-machine topology: the
// cost of a message is latency(from,to) + bytes/bandwidth(from,to), so
// effects like "32 P pays inter-machine transfers" (Figures 4 and 5) can be
// reproduced with real waiting or, for large configurations, analytically in
// internal/perfmodel. It is called once per message, with a typed message's
// payload charged 8·len(v) bytes — the size of its wire form — so the
// modelled and traced traffic does not depend on the transport.
package mp

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrDead is returned for communication with a rank that was killed by
// failure injection.
var ErrDead = errors.New("mp: peer rank is dead")

// ErrClosed is returned after the transport has been closed.
var ErrClosed = errors.New("mp: transport closed")

// DelayFunc models link cost: it returns how long a message of n bytes from
// rank `from` to rank `to` should take. A typed float64 message counts as
// 8·len(v) bytes. A nil DelayFunc means no delay.
type DelayFunc func(from, to, n int) time.Duration

// Transport delivers tagged byte messages between ranks. Each rank must
// have at most one concurrent receiver (the SPMD model guarantees this: the
// rank's control thread is the only one that communicates).
type Transport interface {
	// Send delivers data to rank `to` with the given tag. Ownership of
	// data passes to the receiver: the in-process transport hands the
	// slice itself over, so the sender must not modify it afterwards. The
	// typed float64 path (Comm.SendF64s) follows the same rule.
	Send(from, to int, tag int64, data []byte) error
	// Recv blocks until a message from rank `from` with the given tag
	// arrives at rank `to`.
	Recv(to, from int, tag int64) ([]byte, error)
	// Kill marks a rank dead: communication with it fails from then on.
	Kill(rank int)
	// Alive reports whether the rank is still alive.
	Alive(rank int) bool
	// Grow extends the transport to support ranks [old, n). Transports
	// that cannot grow return an error.
	Grow(n int) error
	// Close releases all resources.
	Close() error
}

// message is one delivery. A typed message carries f64s and no data; a
// receiver that asks for the other form gets it converted, so a byte
// receive of a typed message (or the reverse) still sees the same values.
type message struct {
	from int
	tag  int64
	data []byte
	f64s []float64
}

func (m message) bytes() []byte {
	if m.f64s != nil {
		return EncodeF64s(m.f64s)
	}
	return m.data
}

func (m message) floats() []float64 {
	if m.f64s != nil || m.data == nil {
		return m.f64s
	}
	return DecodeF64s(m.data)
}

// f64Transport is the optional typed capability of a transport whose ranks
// share one address space: a float64 slice is handed to the receiver as is,
// with no byte encoding. InProc has it; the Comm falls back to EncodeF64s
// bytes on a transport without it.
type f64Transport interface {
	sendF64s(from, to int, tag int64, v []float64) error
	recvF64s(to, from int, tag int64) ([]float64, error)
}

// mailbox is the per-rank receive queue: a channel plus an out-of-order
// stash for messages whose tag is not currently wanted.
type mailbox struct {
	ch      chan message
	pending []message
	dead    chan struct{}
	once    sync.Once
}

func newMailbox() *mailbox {
	return &mailbox{ch: make(chan message, 1024), dead: make(chan struct{})}
}

func (m *mailbox) kill() { m.once.Do(func() { close(m.dead) }) }

func (m *mailbox) isDead() bool {
	select {
	case <-m.dead:
		return true
	default:
		return false
	}
}

// take returns the first pending or arriving message matching (from, tag).
// Only one goroutine per rank may call take (single-receiver rule).
func (m *mailbox) take(from int, tag int64) (message, error) {
	for i, p := range m.pending {
		if p.from == from && p.tag == tag {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return p, nil
		}
	}
	for {
		select {
		case msg := <-m.ch:
			if msg.from == from && msg.tag == tag {
				return msg, nil
			}
			m.pending = append(m.pending, msg)
		case <-m.dead:
			return message{}, ErrDead
		}
	}
}

// InProc is the channel-based transport.
type InProc struct {
	mu    sync.RWMutex
	boxes []*mailbox
	delay DelayFunc
}

// NewInProc creates an in-process transport for n ranks with optional delay
// injection.
func NewInProc(n int, delay DelayFunc) *InProc {
	t := &InProc{delay: delay}
	t.boxes = make([]*mailbox, n)
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

func (t *InProc) box(r int) (*mailbox, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if r < 0 || r >= len(t.boxes) {
		return nil, fmt.Errorf("mp: rank %d out of range [0,%d)", r, len(t.boxes))
	}
	return t.boxes[r], nil
}

// Send implements Transport.
func (t *InProc) Send(from, to int, tag int64, data []byte) error {
	return t.deliver(to, message{from: from, tag: tag, data: data}, len(data))
}

// sendF64s hands v itself to rank `to`, charged 8·len(v) bytes.
func (t *InProc) sendF64s(from, to int, tag int64, v []float64) error {
	return t.deliver(to, message{from: from, tag: tag, f64s: v}, 8*len(v))
}

// deliver queues msg at rank `to` after the delay for a message of n bytes.
func (t *InProc) deliver(to int, msg message, n int) error {
	dst, err := t.box(to)
	if err != nil {
		return err
	}
	src, err := t.box(msg.from)
	if err != nil {
		return err
	}
	if src.isDead() || dst.isDead() {
		return ErrDead
	}
	if t.delay != nil {
		if d := t.delay(msg.from, to, n); d > 0 {
			time.Sleep(d)
		}
	}
	select {
	case dst.ch <- msg:
		return nil
	case <-dst.dead:
		return ErrDead
	}
}

// Recv implements Transport.
func (t *InProc) Recv(to, from int, tag int64) ([]byte, error) {
	msg, err := t.take(to, from, tag)
	return msg.bytes(), err
}

func (t *InProc) recvF64s(to, from int, tag int64) ([]float64, error) {
	msg, err := t.take(to, from, tag)
	return msg.floats(), err
}

func (t *InProc) take(to, from int, tag int64) (message, error) {
	dst, err := t.box(to)
	if err != nil {
		return message{}, err
	}
	return dst.take(from, tag)
}

// Kill implements Transport.
func (t *InProc) Kill(rank int) {
	if b, err := t.box(rank); err == nil {
		b.kill()
	}
}

// Alive implements Transport.
func (t *InProc) Alive(rank int) bool {
	b, err := t.box(rank)
	return err == nil && !b.isDead()
}

// Grow implements Transport: ranks [len, n) gain fresh mailboxes.
func (t *InProc) Grow(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.boxes) < n {
		t.boxes = append(t.boxes, newMailbox())
	}
	return nil
}

// Close implements Transport.
func (t *InProc) Close() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.boxes {
		b.kill()
	}
	return nil
}
