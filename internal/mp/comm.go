package mp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

func waitFor(d time.Duration) { time.Sleep(d) }

// Collective kinds, encoded into tags so that consecutive collectives cannot
// cross-talk even when ranks run ahead of each other.
const (
	kindP2P int64 = iota
	kindBarrier
	kindBcast
	kindGather
	kindScatter
	kindReduce
)

// tagFor packs (kind, sequence, round/user-tag) into one int64 tag.
// Layout: kind in bits 56..59, seq in bits 16..55, low 16 bits for the round
// or user tag.
func tagFor(kind, seq, low int64) int64 {
	return kind<<56 | (seq&0xFFFFFFFFFF)<<16 | (low & 0xFFFF)
}

// Group is the shared state of a communicator world: its transport and its
// current size. The size changes only at quiescent points (safe points), as
// the paper's adaptability protocol requires; it is stored atomically so
// ranks waiting for a resize notification can read it without racing the
// master's write.
type Group struct {
	tr   Transport
	size atomic.Int64
}

// NewGroup wraps a transport into a group of n ranks.
func NewGroup(tr Transport, n int) *Group {
	g := &Group{tr: tr}
	g.size.Store(int64(n))
	return g
}

// Size reports the current world size.
func (g *Group) Size() int { return int(g.size.Load()) }

// Transport exposes the underlying transport (for failure injection).
func (g *Group) Transport() Transport { return g.tr }

// Resize changes the world size. Growing also grows the transport. The
// caller must guarantee quiescence: every live rank is at the same safe
// point and will observe the new size at its next collective.
func (g *Group) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("mp: world size must be >= 1, got %d", n)
	}
	if n > g.Size() {
		if err := g.tr.Grow(n); err != nil {
			return err
		}
	}
	g.size.Store(int64(n))
	return nil
}

// Comm is one rank's endpoint in the group. It is not safe for concurrent
// use: the rank's control thread is the single communicator (SPMD rule).
type Comm struct {
	rank int
	g    *Group
	seq  int64 // collective sequence number; advances identically on all ranks
}

// NewComm creates the endpoint for a rank.
func NewComm(g *Group, rank int) *Comm {
	return &Comm{rank: rank, g: g}
}

// Rank reports this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size reports the current world size.
func (c *Comm) Size() int { return c.g.Size() }

// Group returns the underlying group.
func (c *Comm) Group() *Group { return c.g }

// SetSeq forces the collective sequence number; a rank that joins an
// existing world (run-time expansion) must adopt the incumbent ranks'
// counter so tags keep matching.
func (c *Comm) SetSeq(seq int64) { c.seq = seq }

// Seq reports the collective sequence number.
func (c *Comm) Seq() int64 { return c.seq }

// Send delivers data to rank `to` with a user tag in [0, 65536).
func (c *Comm) Send(to int, tag int, data []byte) error {
	return c.g.tr.Send(c.rank, to, tagFor(kindP2P, 0, int64(tag)), data)
}

// Recv blocks for a message from rank `from` with the given user tag.
func (c *Comm) Recv(from int, tag int) ([]byte, error) {
	return c.g.tr.Recv(c.rank, from, tagFor(kindP2P, 0, int64(tag)))
}

// Barrier synchronises all ranks (dissemination algorithm: ceil(log2 n)
// rounds of pairwise messages).
func (c *Comm) Barrier() error {
	seq := c.seq
	c.seq++
	n := c.Size()
	if n == 1 {
		return nil
	}
	for k, round := 1, int64(0); k < n; k, round = k<<1, round+1 {
		to := (c.rank + k) % n
		from := (c.rank - k + n) % n
		if err := c.g.tr.Send(c.rank, to, tagFor(kindBarrier, seq, round), nil); err != nil {
			return fmt.Errorf("mp: barrier send: %w", err)
		}
		if _, err := c.g.tr.Recv(c.rank, from, tagFor(kindBarrier, seq, round)); err != nil {
			return fmt.Errorf("mp: barrier recv: %w", err)
		}
	}
	return nil
}

// Bcast distributes root's data to every rank via a binomial tree and
// returns the data (the root's own buffer on the root). At step m (halving
// from the world's power-of-two ceiling), ranks whose root-relative id is a
// multiple of 2m — which already hold the data — send to id+m; rank id
// receives at m = lowest set bit of id.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	seq := c.seq
	c.seq++
	n := c.Size()
	if n == 1 {
		return data, nil
	}
	rel := (c.rank - root + n) % n
	for m := nextPow2(n) >> 1; m >= 1; m >>= 1 {
		switch {
		case rel%(2*m) == 0 && rel+m < n:
			dst := (rel + m + root) % n
			if err := c.g.tr.Send(c.rank, dst, tagFor(kindBcast, seq, 0), data); err != nil {
				return nil, fmt.Errorf("mp: bcast send: %w", err)
			}
		case rel%(2*m) == m:
			src := (rel - m + root) % n
			got, err := c.g.tr.Recv(c.rank, src, tagFor(kindBcast, seq, 0))
			if err != nil {
				return nil, fmt.Errorf("mp: bcast recv: %w", err)
			}
			data = got
		}
	}
	return data, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Gather collects each rank's data at root. On root it returns a slice
// indexed by rank (root's own entry references data); elsewhere nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	return gather(c, root, data, c.send, c.recv)
}

// Scatter distributes parts[r] to each rank r from root and returns this
// rank's part. Only root's parts argument is consulted.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	return scatter(c, root, parts, c.send, c.recv)
}

func (c *Comm) send(to int, tag int64, data []byte) error {
	return c.g.tr.Send(c.rank, to, tag, data)
}

func (c *Comm) recv(from int, tag int64) ([]byte, error) {
	return c.g.tr.Recv(c.rank, from, tag)
}

// gather is the Gather collective for either payload form, moved point to
// point by send and recv.
func gather[T any](c *Comm, root int, v T, send func(int, int64, T) error, recv func(int, int64) (T, error)) ([]T, error) {
	seq := c.seq
	c.seq++
	n := c.Size()
	if c.rank != root {
		if err := send(root, tagFor(kindGather, seq, 0), v); err != nil {
			return nil, fmt.Errorf("mp: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([]T, n)
	out[root] = v
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		got, err := recv(r, tagFor(kindGather, seq, 0))
		if err != nil {
			return nil, fmt.Errorf("mp: gather recv from %d: %w", r, err)
		}
		out[r] = got
	}
	return out, nil
}

// scatter is the Scatter collective for either payload form.
func scatter[T any](c *Comm, root int, parts []T, send func(int, int64, T) error, recv func(int, int64) (T, error)) (T, error) {
	var none T
	seq := c.seq
	c.seq++
	n := c.Size()
	if c.rank == root {
		if len(parts) != n {
			return none, fmt.Errorf("mp: scatter needs %d parts, got %d", n, len(parts))
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := send(r, tagFor(kindScatter, seq, 0), parts[r]); err != nil {
				return none, fmt.Errorf("mp: scatter send to %d: %w", r, err)
			}
		}
		return parts[root], nil
	}
	got, err := recv(root, tagFor(kindScatter, seq, 0))
	if err != nil {
		return none, fmt.Errorf("mp: scatter recv: %w", err)
	}
	return got, nil
}

// Allgather is Gather to rank 0 followed by Bcast of the concatenated
// frame table.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var frame []byte
	if c.rank == 0 {
		frame = packFrames(parts)
	}
	frame, err = c.Bcast(0, frame)
	if err != nil {
		return nil, err
	}
	return unpackFrames(frame)
}

func packFrames(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(parts)))
	out = append(out, b4[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(p)))
		out = append(out, b4[:]...)
		out = append(out, p...)
	}
	return out
}

func unpackFrames(frame []byte) ([][]byte, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("mp: short frame table")
	}
	n := int(binary.LittleEndian.Uint32(frame[:4]))
	frame = frame[4:]
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(frame) < 4 {
			return nil, fmt.Errorf("mp: truncated frame table")
		}
		l := int(binary.LittleEndian.Uint32(frame[:4]))
		frame = frame[4:]
		if len(frame) < l {
			return nil, fmt.Errorf("mp: truncated frame payload")
		}
		out[i] = frame[:l:l]
		frame = frame[l:]
	}
	return out, nil
}

// --- typed float64 helpers -------------------------------------------------

// EncodeF64s converts a float64 slice to little-endian bytes.
func EncodeF64s(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return b
}

// DecodeF64s converts little-endian bytes back to a float64 slice.
func DecodeF64s(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// sendF64s hands v to rank `to`: as is on a typed transport, as EncodeF64s
// bytes on any other.
func (c *Comm) sendF64s(to int, tag int64, v []float64) error {
	if ft, ok := c.g.tr.(f64Transport); ok {
		return ft.sendF64s(c.rank, to, tag, v)
	}
	return c.send(to, tag, EncodeF64s(v))
}

// recvF64s receives what sendF64s sent.
func (c *Comm) recvF64s(from int, tag int64) ([]float64, error) {
	if ft, ok := c.g.tr.(f64Transport); ok {
		return ft.recvF64s(c.rank, from, tag)
	}
	b, err := c.recv(from, tag)
	if err != nil {
		return nil, err
	}
	return DecodeF64s(b), nil
}

// SendF64s sends a float64 slice to rank `to`. Ownership of v passes to the
// receiver (the in-process transport hands the slice itself over): the
// caller must not modify v afterwards, so a live array is sent as a copy.
func (c *Comm) SendF64s(to, tag int, v []float64) error {
	return c.sendF64s(to, tagFor(kindP2P, 0, int64(tag)), v)
}

// RecvF64s receives a float64 slice from rank `from`; the caller owns it.
func (c *Comm) RecvF64s(from, tag int) ([]float64, error) {
	return c.recvF64s(from, tagFor(kindP2P, 0, int64(tag)))
}

// GatherF64s is Gather for float64 slices: it collects each rank's v at
// root and returns them indexed by rank on root (root's own entry is v),
// nil elsewhere. Ownership of every sent v passes to root.
func (c *Comm) GatherF64s(root int, v []float64) ([][]float64, error) {
	return gather(c, root, v, c.sendF64s, c.recvF64s)
}

// ScatterF64s is Scatter for float64 slices: root sends parts[r] to each
// rank r and every rank returns its own part. Only root's parts argument is
// consulted, and ownership of each sent part passes to its receiver.
func (c *Comm) ScatterF64s(root int, parts [][]float64) ([]float64, error) {
	return scatter(c, root, parts, c.sendF64s, c.recvF64s)
}

// ReduceF64s folds each rank's equally-long vector element-wise at root with
// op, deterministically in rank order (so results are reproducible across
// runs, which the checkpoint equivalence tests rely on). Returns the folded
// vector on root, nil elsewhere.
func (c *Comm) ReduceF64s(root int, v []float64, op func(a, b float64) float64) ([]float64, error) {
	seq := c.seq
	c.seq++
	if c.rank != root {
		if err := c.g.tr.Send(c.rank, root, tagFor(kindReduce, seq, 0), EncodeF64s(v)); err != nil {
			return nil, fmt.Errorf("mp: reduce send: %w", err)
		}
		return nil, nil
	}
	n := c.Size()
	acc := make([]float64, len(v))
	first := true
	for r := 0; r < n; r++ {
		var contrib []float64
		if r == root {
			contrib = v
		} else {
			b, err := c.g.tr.Recv(c.rank, r, tagFor(kindReduce, seq, 0))
			if err != nil {
				return nil, fmt.Errorf("mp: reduce recv from %d: %w", r, err)
			}
			contrib = DecodeF64s(b)
		}
		if len(contrib) != len(acc) {
			return nil, fmt.Errorf("mp: reduce length mismatch: rank %d sent %d, want %d", r, len(contrib), len(acc))
		}
		if first {
			copy(acc, contrib)
			first = false
			continue
		}
		for i := range acc {
			acc[i] = op(acc[i], contrib[i])
		}
	}
	return acc, nil
}

// AllreduceF64s is ReduceF64s at rank 0 followed by a broadcast.
func (c *Comm) AllreduceF64s(v []float64, op func(a, b float64) float64) ([]float64, error) {
	red, err := c.ReduceF64s(0, v, op)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if c.rank == 0 {
		payload = EncodeF64s(red)
	}
	payload, err = c.Bcast(0, payload)
	if err != nil {
		return nil, err
	}
	return DecodeF64s(payload), nil
}
