package mp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is a loopback-socket transport: every rank owns a listener; links are
// dialed lazily on first send; a reader goroutine per inbound connection
// pumps frames into the rank's mailbox. Frames are length-prefixed:
//
//	u32 from | i64 tag | u32 len | payload
//
// The TCP world has a fixed size (Grow returns an error); run-time world
// resizing is an in-process capability, while TCP worlds adapt via the
// checkpoint/restart protocol — the same split the paper describes between
// run-time adaptation and restart-based adaptation.
type TCP struct {
	boxes []*mailbox
	lns   []net.Listener
	addrs []string
	delay DelayFunc

	mu    sync.Mutex
	conns map[[2]int]net.Conn // (from,to) -> outbound conn
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewTCP creates a TCP transport for n ranks on loopback.
func NewTCP(n int, delay DelayFunc) (*TCP, error) {
	t := &TCP{
		boxes: make([]*mailbox, n),
		lns:   make([]net.Listener, n),
		addrs: make([]string, n),
		delay: delay,
		conns: map[[2]int]net.Conn{},
		done:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		t.boxes[i] = newMailbox()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("mp: listen rank %d: %w", i, err)
		}
		t.lns[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.wg.Add(1)
		go t.accept(i, ln)
	}
	return t, nil
}

func (t *TCP) accept(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.pump(rank, conn)
	}
}

// pump reads frames from one inbound connection into rank's mailbox.
func (t *TCP) pump(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	box := t.boxes[rank]
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		from := int(binary.LittleEndian.Uint32(hdr[0:4]))
		tag := int64(binary.LittleEndian.Uint64(hdr[4:12]))
		n := binary.LittleEndian.Uint32(hdr[12:16])
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		select {
		case box.ch <- message{from: from, tag: tag, data: data}:
		case <-box.dead:
			return
		case <-t.done:
			return
		}
	}
}

func (t *TCP) conn(from, to int) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]int{from, to}
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("mp: dial rank %d->%d: %w", from, to, err)
	}
	t.conns[key] = c
	return c, nil
}

// Send implements Transport.
func (t *TCP) Send(from, to int, tag int64, data []byte) error {
	if from < 0 || from >= len(t.boxes) || to < 0 || to >= len(t.boxes) {
		return fmt.Errorf("mp: rank out of range (%d->%d)", from, to)
	}
	if t.boxes[from].isDead() || t.boxes[to].isDead() {
		return ErrDead
	}
	if t.delay != nil {
		if d := t.delay(from, to, len(data)); d > 0 {
			// Model link cost; the sleep happens on the sender as a
			// simple half-duplex approximation.
			waitFor(d)
		}
	}
	c, err := t.conn(from, to)
	if err != nil {
		return err
	}
	buf := make([]byte, 16+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(from))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(tag))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(data)))
	copy(buf[16:], data)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := c.Write(buf); err != nil {
		delete(t.conns, [2]int{from, to})
		return fmt.Errorf("mp: send %d->%d: %w", from, to, err)
	}
	return nil
}

// Recv implements Transport.
func (t *TCP) Recv(to, from int, tag int64) ([]byte, error) {
	if to < 0 || to >= len(t.boxes) {
		return nil, fmt.Errorf("mp: rank %d out of range", to)
	}
	msg, err := t.boxes[to].take(from, tag)
	return msg.data, err
}

// Kill implements Transport.
func (t *TCP) Kill(rank int) {
	if rank >= 0 && rank < len(t.boxes) {
		t.boxes[rank].kill()
		t.lns[rank].Close()
	}
}

// Alive implements Transport.
func (t *TCP) Alive(rank int) bool {
	return rank >= 0 && rank < len(t.boxes) && !t.boxes[rank].isDead()
}

// Grow implements Transport; TCP worlds are fixed-size.
func (t *TCP) Grow(n int) error {
	if n <= len(t.boxes) {
		return nil
	}
	return fmt.Errorf("mp: TCP transport cannot grow (fixed world of %d ranks); use an in-process migration (which rebuilds the transport) or checkpoint/restart adaptation", len(t.boxes))
}

// Close implements Transport.
func (t *TCP) Close() error {
	select {
	case <-t.done:
		return nil
	default:
		close(t.done)
	}
	for i := range t.boxes {
		t.boxes[i].kill()
		if t.lns[i] != nil {
			t.lns[i].Close()
		}
	}
	t.mu.Lock()
	for k, c := range t.conns {
		c.Close()
		delete(t.conns, k)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
