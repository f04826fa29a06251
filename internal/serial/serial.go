// Package serial implements the portable on-disk representation of
// application-level checkpoints.
//
// The paper (§IV.A) requires checkpoint data to be saved "in a portable
// manner to allow an easy application migration across the heterogeneous set
// of resources typical of a Grid environment" and to contain only the data
// the programmer names via the SafeData template. The format defined here is
// a small, versioned, little-endian binary container:
//
//	magic "PPCKPT1\n" | header (app, mode, safe-point count, field count)
//	field*            | name, type tag, shape, payload, CRC-32 of payload
//	trailer           | CRC-32 of everything before it
//
// Because the container is independent of the execution mode that produced
// it, a snapshot gathered at the master of a distributed run can restart a
// sequential, shared-memory or distributed run — the property §IV.A uses to
// adapt across execution modes by checkpoint/restart.
//
// Alongside the full container lives the incremental one: a PPCKPD1 delta
// (see delta.go) holds only the fields — and, for large float slices and
// matrices, only the fixed-size chunks — that changed since the previous
// capture, anchored by (BaseSP, Seq) to the full snapshot at the head of
// its chain. Restoring replays base + d1 + ... + dN; every prefix of a
// chain is itself a consistent checkpoint, which is what lets a store
// truncate at a torn or missing link instead of half-applying it. The
// diffing side (the per-field/per-chunk content-hash cache) is StateHash
// in diff.go.
package serial

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"unsafe"
)

// Magic identifies a pluggable-parallelisation checkpoint container.
const Magic = "PPCKPT1\n"

// Type tags for field payloads.
const (
	TFloat64   = uint8(1) // scalar float64
	TInt64     = uint8(2) // scalar int64
	TFloat64s  = uint8(3) // []float64
	TInt64s    = uint8(4) // []int64
	TFloat64_2 = uint8(5) // [][]float64 (rectangular)
	TBytes     = uint8(6) // raw []byte
	TGob       = uint8(7) // arbitrary value via encoding/gob
)

// Value is one named datum inside a snapshot. Exactly one of the typed
// fields is meaningful, selected by Tag.
type Value struct {
	Tag  uint8
	F    float64
	I    int64
	Fs   []float64
	Is   []int64
	F2   [][]float64
	B    []byte
	Rows int // for F2
	Cols int // for F2
}

// Float64 wraps a scalar float64.
func Float64(v float64) Value { return Value{Tag: TFloat64, F: v} }

// Int64 wraps a scalar int64.
func Int64(v int64) Value { return Value{Tag: TInt64, I: v} }

// Float64s wraps a float64 slice (not copied).
func Float64s(v []float64) Value { return Value{Tag: TFloat64s, Fs: v} }

// Int64s wraps an int64 slice (not copied).
func Int64s(v []int64) Value { return Value{Tag: TInt64s, Is: v} }

// Float64Matrix wraps a rectangular [][]float64 (not copied).
func Float64Matrix(v [][]float64) Value {
	rows := len(v)
	cols := 0
	if rows > 0 {
		cols = len(v[0])
	}
	return Value{Tag: TFloat64_2, F2: v, Rows: rows, Cols: cols}
}

// Bytes wraps a raw byte slice (not copied).
func Bytes(v []byte) Value { return Value{Tag: TBytes, B: v} }

// Gob wraps an arbitrary value via encoding/gob. The concrete type must be
// gob-encodable and the caller must decode into the same type.
func Gob(v any) (Value, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return Value{}, fmt.Errorf("serial: gob encode: %w", err)
	}
	return Value{Tag: TGob, B: buf.Bytes()}, nil
}

// DecodeGob decodes a TGob value into out (a pointer).
func (v Value) DecodeGob(out any) error {
	if v.Tag != TGob {
		return fmt.Errorf("serial: value tag %d is not gob", v.Tag)
	}
	return gob.NewDecoder(bytes.NewReader(v.B)).Decode(out)
}

// ByteLen reports the payload size in bytes (excluding per-field framing).
func (v Value) ByteLen() int {
	switch v.Tag {
	case TFloat64, TInt64:
		return 8
	case TFloat64s:
		return 8 * len(v.Fs)
	case TInt64s:
		return 8 * len(v.Is)
	case TFloat64_2:
		return 8 * v.Rows * v.Cols
	case TBytes, TGob:
		return len(v.B)
	}
	return 0
}

// Snapshot is the in-memory form of one checkpoint.
type Snapshot struct {
	App        string
	Mode       string
	SafePoints uint64
	Fields     map[string]Value
}

// NewSnapshot allocates an empty snapshot for app.
func NewSnapshot(app, mode string, safePoints uint64) *Snapshot {
	return &Snapshot{App: app, Mode: mode, SafePoints: safePoints, Fields: map[string]Value{}}
}

// DataBytes reports the total payload bytes across all fields — the quantity
// Figures 4 and 5 of the paper account as "time to save/load the data".
func (s *Snapshot) DataBytes() int {
	n := 0
	for _, v := range s.Fields {
		n += v.ByteLen()
	}
	return n
}

// Clone deep-copies the snapshot: every slice, matrix row and byte payload
// gets fresh backing storage. The asynchronous checkpoint pipeline captures
// a clone at the safe point so computation can keep mutating the live
// fields while the copy is encoded and persisted in the background. Backing
// storage is drawn from the package pools, so a clone the pipeline recycles
// (RecycleSnapshot) makes the next capture allocation-free.
func (s *Snapshot) Clone() *Snapshot {
	c := snapPool.Get().(*Snapshot)
	c.App, c.Mode, c.SafePoints = s.App, s.Mode, s.SafePoints
	for name, v := range s.Fields {
		c.Fields[name] = v.clone()
	}
	return c
}

func (v Value) clone() Value {
	out := v
	if v.Fs != nil {
		out.Fs = getF64s(len(v.Fs))
		copy(out.Fs, v.Fs)
	}
	if v.Is != nil {
		out.Is = getI64s(len(v.Is))
		copy(out.Is, v.Is)
	}
	if v.B != nil {
		out.B = getBytes(len(v.B))
		copy(out.B, v.B)
	}
	if v.F2 != nil {
		out.F2 = getRows(len(v.F2))
		for i, row := range v.F2 {
			r := getF64s(len(row))
			copy(r, row)
			out.F2[i] = r
		}
	}
	return out
}

var order = binary.LittleEndian

type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

func writeU8(w io.Writer, v uint8) error { _, err := w.Write([]byte{v}); return err }
func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	order.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}
func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	order.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// payloadWriter streams a field payload through one pooled scratch block,
// writing the block to w whenever it fills, so encoding a field allocates
// nothing in proportion to its size. The first error sticks; later calls
// do nothing.
type payloadWriter struct {
	w   io.Writer
	b   []byte
	n   int
	err error
}

// littleEndian reports whether the host stores numbers in the container's
// byte order. Then a float or int slice's memory already is its payload,
// and the encoder streams it as bytes instead of converting each element.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func (p *payloadWriter) flush() {
	if p.n > 0 && p.err == nil {
		_, p.err = p.w.Write(p.b[:p.n])
	}
	p.n = 0
}

func (p *payloadWriter) u64(x uint64) {
	if len(p.b)-p.n < 8 {
		p.flush()
	}
	order.PutUint64(p.b[p.n:], x)
	p.n += 8
}

func (p *payloadWriter) f64s(v []float64) {
	if littleEndian {
		p.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v)))
		return
	}
	for len(v) > 0 && p.err == nil {
		if len(p.b)-p.n < 8 {
			p.flush()
		}
		k := min(len(v), (len(p.b)-p.n)/8)
		for i, f := range v[:k] {
			order.PutUint64(p.b[p.n+8*i:], math.Float64bits(f))
		}
		p.n += 8 * k
		v = v[k:]
	}
}

func (p *payloadWriter) i64s(v []int64) {
	if littleEndian {
		p.bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v)))
		return
	}
	for len(v) > 0 && p.err == nil {
		if len(p.b)-p.n < 8 {
			p.flush()
		}
		k := min(len(v), (len(p.b)-p.n)/8)
		for i, x := range v[:k] {
			order.PutUint64(p.b[p.n+8*i:], uint64(x))
		}
		p.n += 8 * k
		v = v[k:]
	}
}

// bytes streams b through the block; a run at least a block long goes to w
// directly instead of being copied first.
func (p *payloadWriter) bytes(b []byte) {
	if len(b) >= len(p.b) {
		p.flush()
		if p.err == nil {
			_, p.err = p.w.Write(b)
		}
		return
	}
	for len(b) > 0 && p.err == nil {
		if p.n == len(p.b) {
			p.flush()
		}
		k := copy(p.b[p.n:], b)
		p.n += k
		b = b[k:]
	}
}

// Encode writes the snapshot to w in the container format. Snapshots large
// enough to make encoding a bottleneck are encoded with a worker pool (see
// EncodeParallel); the bytes produced are identical either way. A
// bytes.Buffer destination is grown to the container's size first, so an
// in-memory save allocates once instead of doubling with every streamed
// block.
func (s *Snapshot) Encode(w io.Writer) error {
	if b, ok := w.(*bytes.Buffer); ok {
		b.Grow(s.encodedLen())
	}
	if s.DataBytes() >= parallelEncodeThreshold && len(s.Fields) > 1 {
		return s.EncodeParallel(w, 0)
	}
	return s.encodeSequential(w)
}

// encodedLen reports the size of the container Encode writes. A field the
// container refuses counts as empty: Encode fails on it anyway.
func (s *Snapshot) encodedLen() int {
	n := len(Magic) + 4 + len(s.App) + 4 + len(s.Mode) + 8 + 4 + 4 // header, field count, trailer
	for name, v := range s.Fields {
		plen, _ := payloadLen(v)
		n += 4 + len(name) + 1 + 4 + 4 + int(plen) // name, tag, length, CRC, payload
	}
	return n
}

func (s *Snapshot) encodeSequential(w io.Writer) error {
	cw := &crcWriter{w: w}
	if err := s.encodeHeader(cw); err != nil {
		return err
	}
	for _, name := range s.fieldNames() {
		if err := encodeField(cw, name, s.Fields[name]); err != nil {
			return fmt.Errorf("serial: field %q: %w", name, err)
		}
	}
	// Trailer: CRC of everything written so far.
	return writeU32(w, cw.crc)
}

// encodeHeader writes the magic and header through the container CRC.
func (s *Snapshot) encodeHeader(cw *crcWriter) error {
	if _, err := io.WriteString(cw, Magic); err != nil {
		return err
	}
	if err := writeString(cw, s.App); err != nil {
		return err
	}
	if err := writeString(cw, s.Mode); err != nil {
		return err
	}
	if err := writeU64(cw, s.SafePoints); err != nil {
		return err
	}
	return writeU32(cw, uint32(len(s.Fields)))
}

// fieldNames returns the field names in the canonical (sorted) container
// order.
func (s *Snapshot) fieldNames() []string {
	names := make([]string, 0, len(s.Fields))
	for k := range s.Fields {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// encodeField frames one field: name, tag, payload length, payload CRC,
// payload. The length and CRC precede the payload, so the payload is sized
// from the Value (payloadLen, which also rejects every malformed value
// before a byte is written) and streamed twice through one scratch block —
// once into the CRC, once out to w — instead of being materialised.
func encodeField(w io.Writer, name string, v Value) error {
	plen, err := payloadLen(v)
	if err != nil {
		return err
	}
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	sum := crc32.NewIEEE()
	writePayload(&payloadWriter{w: sum, b: *sp}, v)
	if err := writeString(w, name); err != nil {
		return err
	}
	if err := writeU8(w, v.Tag); err != nil {
		return err
	}
	if err := writeU32(w, uint32(plen)); err != nil {
		return err
	}
	if err := writeU32(w, sum.Sum32()); err != nil {
		return err
	}
	pw := &payloadWriter{w: w, b: *sp}
	writePayload(pw, v)
	return pw.err
}

// payloadLen reports the encoded payload size of v, refusing what the
// container cannot frame: an unknown tag, a ragged matrix, too many empty
// rows, or a payload past the u32 length field.
func payloadLen(v Value) (uint64, error) {
	var n uint64
	switch v.Tag {
	case TFloat64, TInt64:
		n = 8
	case TFloat64s:
		n = 8 + 8*uint64(len(v.Fs))
	case TInt64s:
		n = 8 + 8*uint64(len(v.Is))
	case TFloat64_2:
		if v.Cols == 0 && v.Rows > maxEmptyRows {
			// The decoder bounds zero-column row counts (the payload
			// cannot), so refusing here keeps every encoder-produced
			// container decodable.
			return 0, fmt.Errorf("%d empty rows exceed the container's zero-column row limit (%d)", v.Rows, maxEmptyRows)
		}
		n = 16 + 8*uint64(v.Rows)*uint64(v.Cols)
	case TBytes, TGob:
		n = 8 + uint64(len(v.B))
	default:
		return 0, fmt.Errorf("unknown tag %d", v.Tag)
	}
	if n > math.MaxUint32 {
		// The container frames each payload with a u32 length; silently
		// truncating the cast would write a corrupt field.
		return 0, fmt.Errorf("payload is %d bytes, exceeding the container's 4 GiB field limit", n)
	}
	if v.Tag == TFloat64_2 {
		for r, row := range v.F2[:v.Rows] {
			if len(row) != v.Cols {
				return 0, fmt.Errorf("ragged matrix: row %d has %d cols, want %d", r, len(row), v.Cols)
			}
		}
	}
	return n, nil
}

// writePayload streams v's payload (whose shape payloadLen has checked).
func writePayload(p *payloadWriter, v Value) {
	switch v.Tag {
	case TFloat64:
		p.u64(math.Float64bits(v.F))
	case TInt64:
		p.u64(uint64(v.I))
	case TFloat64s:
		p.u64(uint64(len(v.Fs)))
		p.f64s(v.Fs)
	case TInt64s:
		p.u64(uint64(len(v.Is)))
		p.i64s(v.Is)
	case TFloat64_2:
		p.u64(uint64(v.Rows))
		p.u64(uint64(v.Cols))
		for _, row := range v.F2[:v.Rows] {
			p.f64s(row)
		}
	case TBytes, TGob:
		p.u64(uint64(len(v.B)))
		p.bytes(v.B)
	}
	p.flush()
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func readU8(r io.Reader) (uint8, error) {
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}
func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return order.Uint32(b[:]), err
}
func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	_, err := io.ReadFull(r, b[:])
	return order.Uint64(b[:]), err
}

const maxStringLen = 1 << 20

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("serial: string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func readF64s(r io.Reader, n int) ([]float64, error) {
	b := make([]byte, 8*n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(order.Uint64(b[8*i:]))
	}
	return v, nil
}

func readI64s(r io.Reader, n int) ([]int64, error) {
	b := make([]byte, 8*n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(order.Uint64(b[8*i:]))
	}
	return v, nil
}

// Decode reads a snapshot in the container format, verifying all checksums.
func Decode(r io.Reader) (*Snapshot, error) {
	cr := &crcReader{r: r}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("serial: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("serial: bad magic %q", magic)
	}
	app, err := readString(cr)
	if err != nil {
		return nil, err
	}
	mode, err := readString(cr)
	if err != nil {
		return nil, err
	}
	sp, err := readU64(cr)
	if err != nil {
		return nil, err
	}
	nf, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	s := NewSnapshot(app, mode, sp)
	for i := uint32(0); i < nf; i++ {
		name, v, err := decodeField(cr)
		if err != nil {
			return nil, fmt.Errorf("serial: field %d: %w", i, err)
		}
		s.Fields[name] = v
	}
	want := cr.crc
	got, err := readU32(r) // trailer read outside the crc reader
	if err != nil {
		return nil, fmt.Errorf("serial: reading trailer: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("serial: container checksum mismatch: file %08x computed %08x", got, want)
	}
	return s, nil
}

func decodeField(r io.Reader) (string, Value, error) {
	name, err := readString(r)
	if err != nil {
		return "", Value{}, err
	}
	tag, err := readU8(r)
	if err != nil {
		return "", Value{}, err
	}
	plen, err := readU32(r)
	if err != nil {
		return "", Value{}, err
	}
	pcrc, err := readU32(r)
	if err != nil {
		return "", Value{}, err
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return "", Value{}, err
	}
	if c := crc32.ChecksumIEEE(payload); c != pcrc {
		return "", Value{}, fmt.Errorf("%q: payload checksum mismatch: file %08x computed %08x", name, pcrc, c)
	}
	pr := bytes.NewReader(payload)
	v := Value{Tag: tag}
	switch tag {
	case TFloat64:
		fs, err := readF64s(pr, 1)
		if err != nil {
			return "", Value{}, err
		}
		v.F = fs[0]
	case TInt64:
		is, err := readI64s(pr, 1)
		if err != nil {
			return "", Value{}, err
		}
		v.I = is[0]
	case TFloat64s:
		n, err := readCount(pr, name, 8)
		if err != nil {
			return "", Value{}, err
		}
		if v.Fs, err = readF64s(pr, n); err != nil {
			return "", Value{}, err
		}
	case TInt64s:
		n, err := readCount(pr, name, 8)
		if err != nil {
			return "", Value{}, err
		}
		if v.Is, err = readI64s(pr, n); err != nil {
			return "", Value{}, err
		}
	case TFloat64_2:
		rows, cols, err := readMatrixShape(pr, name)
		if err != nil {
			return "", Value{}, err
		}
		v.Rows, v.Cols = rows, cols
		v.F2 = make([][]float64, v.Rows)
		for i := 0; i < v.Rows; i++ {
			if v.F2[i], err = readF64s(pr, v.Cols); err != nil {
				return "", Value{}, err
			}
		}
	case TBytes, TGob:
		n, err := readCount(pr, name, 1)
		if err != nil {
			return "", Value{}, err
		}
		v.B = make([]byte, n)
		if _, err := io.ReadFull(pr, v.B); err != nil {
			return "", Value{}, err
		}
	default:
		return "", Value{}, fmt.Errorf("%q: unknown tag %d", name, tag)
	}
	return name, v, nil
}

// maxEagerPayload is the largest field payload read with a single up-front
// allocation; larger (claimed) payloads are read incrementally so that a
// corrupt length cannot force a huge allocation before the data runs out.
const maxEagerPayload = 16 << 20

func readPayload(r io.Reader, plen uint32) ([]byte, error) {
	if plen <= maxEagerPayload {
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(plen)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// readCount reads an element count and bounds it by the payload bytes that
// remain: counts are untrusted input, and a crafted 2^60 must error cleanly
// instead of attempting the allocation.
func readCount(pr *bytes.Reader, name string, elemSize uint64) (int, error) {
	n, err := readU64(pr)
	if err != nil {
		return 0, err
	}
	if rem := uint64(pr.Len()); n > rem/elemSize {
		return 0, fmt.Errorf("%q: element count %d exceeds the %d payload bytes that remain", name, n, rem)
	}
	return int(n), nil
}

// readMatrixShape reads and bounds a matrix shape: rows*cols*8 must fit in
// the remaining payload, and a zero-column matrix may not claim more rows
// than could plausibly have been framed.
func readMatrixShape(pr *bytes.Reader, name string) (int, int, error) {
	rows, err := readU64(pr)
	if err != nil {
		return 0, 0, err
	}
	cols, err := readU64(pr)
	if err != nil {
		return 0, 0, err
	}
	rem := uint64(pr.Len())
	if cols > rem/8 {
		return 0, 0, fmt.Errorf("%q: column count %d exceeds the %d payload bytes that remain", name, cols, rem)
	}
	if cols > 0 && rows > rem/(8*cols) {
		return 0, 0, fmt.Errorf("%q: %dx%d matrix exceeds the %d payload bytes that remain", name, rows, cols, rem)
	}
	if cols == 0 && rows > maxEmptyRows {
		return 0, 0, fmt.Errorf("%q: %d empty rows exceed the zero-column row limit", name, rows)
	}
	return int(rows), int(cols), nil
}

// maxEmptyRows bounds the row count of a zero-column matrix, enforced
// symmetrically at encode and decode: cols == 0 carries no per-row bytes,
// so the payload cannot bound rows on the way in — and the cap must be
// small, because each claimed empty row costs a decode loop iteration
// while consuming no input, so a stream of such fields would otherwise
// turn a few bytes into seconds of work.
const maxEmptyRows = 1 << 12
