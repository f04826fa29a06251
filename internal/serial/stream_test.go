package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// refContainer frames a snapshot the direct way — every payload built whole
// in memory, then its length and CRC, then the bytes — as the reference the
// streaming encoder must reproduce byte for byte.
func refContainer(s *Snapshot) []byte {
	var b bytes.Buffer
	u32 := func(x uint32) { _ = binary.Write(&b, binary.LittleEndian, x) }
	u64 := func(x uint64) { _ = binary.Write(&b, binary.LittleEndian, x) }
	str := func(x string) { u32(uint32(len(x))); b.WriteString(x) }
	b.WriteString(Magic)
	str(s.App)
	str(s.Mode)
	u64(s.SafePoints)
	u32(uint32(len(s.Fields)))
	names := make([]string, 0, len(s.Fields))
	for name := range s.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.Fields[name]
		p := refPayload(v)
		str(name)
		b.WriteByte(v.Tag)
		u32(uint32(len(p)))
		u32(crc32.ChecksumIEEE(p))
		b.Write(p)
	}
	u32(crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func refPayload(v Value) []byte {
	var b bytes.Buffer
	u64 := func(x uint64) { _ = binary.Write(&b, binary.LittleEndian, x) }
	switch v.Tag {
	case TFloat64:
		u64(math.Float64bits(v.F))
	case TInt64:
		u64(uint64(v.I))
	case TFloat64s:
		u64(uint64(len(v.Fs)))
		for _, f := range v.Fs {
			u64(math.Float64bits(f))
		}
	case TInt64s:
		u64(uint64(len(v.Is)))
		for _, x := range v.Is {
			u64(uint64(x))
		}
	case TFloat64_2:
		u64(uint64(v.Rows))
		u64(uint64(v.Cols))
		for _, row := range v.F2 {
			for _, f := range row {
				u64(math.Float64bits(f))
			}
		}
	case TBytes, TGob:
		u64(uint64(len(v.B)))
		b.Write(v.B)
	}
	return b.Bytes()
}

func ramp(n int, seed float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = seed + float64(i)*0.125
	}
	return v
}

func matrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = ramp(cols, float64(i))
	}
	return m
}

// The streaming encoder writes exactly the reference framing for every tag
// and for payloads that end just inside, exactly at and just past the
// scratch block, and for snapshots on both sides of the parallel threshold,
// whether it streams slices as memory or converts them element by element.
func TestEncodeMatchesReferenceFraming(t *testing.T) {
	const blockFloats = scratchBlockBytes / 8
	const thresholdFloats = parallelEncodeThreshold / 8
	gob, err := Gob(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]map[string]Value{
		"every tag": {
			"f": Float64(math.Pi), "i": Int64(-7),
			"fs": Float64s([]float64{1, math.NaN(), math.Inf(-1)}), "is": Int64s([]int64{-1, 0, math.MaxInt64}),
			"m": Float64Matrix(matrix(3, 2)), "b": Bytes([]byte("payload")), "g": gob,
		},
		"empty values": {
			"fs": Float64s([]float64{}), "is": Int64s(nil), "b": Bytes([]byte{}),
			"m": Float64Matrix(nil),
		},
		"zero-column matrix": {"m": {Tag: TFloat64_2, F2: make([][]float64, 5), Rows: 5}},
		// The payload is an 8-byte count plus the elements.
		"block minus 8":  {"fs": Float64s(ramp(blockFloats-2, 1))},
		"block exactly":  {"fs": Float64s(ramp(blockFloats-1, 2))},
		"block plus 8":   {"fs": Float64s(ramp(blockFloats, 3)), "is": Int64s(make([]int64, blockFloats+1))},
		"rows straddle":  {"m": Float64Matrix(matrix(7, 3001))},
		"below parallel": {"a": Float64s(ramp(thresholdFloats/2, 4)), "b": Float64s(ramp(thresholdFloats/2-1, 5))},
		"at parallel":    {"a": Float64s(ramp(thresholdFloats/2, 6)), "b": Float64Matrix(matrix(thresholdFloats/2/512, 512))},
		"above parallel": {"a": Float64s(ramp(thresholdFloats/2, 7)), "b": Float64s(ramp(thresholdFloats/2+1, 8))},
	}
	// The element-wise conversion a big-endian host uses runs here too.
	defer func(host bool) { littleEndian = host }(littleEndian)
	for _, le := range []bool{littleEndian, false} {
		littleEndian = le
		for name, fields := range cases {
			t.Run(fmt.Sprintf("%s/little-endian=%v", name, le), func(t *testing.T) {
				s := NewSnapshot("app", "canonical", 42)
				for k, v := range fields {
					s.Fields[k] = v
				}
				want := refContainer(s)
				if n := s.encodedLen(); n != len(want) {
					t.Fatalf("encodedLen = %d; the container is %d bytes", n, len(want))
				}
				var got bytes.Buffer
				if err := s.Encode(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("Encode wrote %d bytes that differ from the %d-byte reference framing", got.Len(), len(want))
				}
				got.Reset()
				if err := s.EncodeParallel(&got, 2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("EncodeParallel wrote %d bytes that differ from the %d-byte reference framing", got.Len(), len(want))
				}
			})
		}
	}
}

// Encoding streams: an 8 MB matrix goes out through the fixed scratch block,
// with no payload-sized buffer behind it.
func TestEncodeMatrixAllocatesNoPayloadBuffer(t *testing.T) {
	s := NewSnapshot("app", "canonical", 1)
	s.Fields["G"] = Float64Matrix(matrix(1000, 1000))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := s.Encode(io.Discard)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("encoding a 1000x1000 matrix allocated %d bytes", got)
	if got >= 1<<20 {
		t.Fatalf("encoding a 1000x1000 matrix allocated %d bytes, want < 1 MiB", got)
	}
}

// An in-memory save grows its buffer once, to the container's size, rather
// than doubling with every streamed block (which leaves it about 1.8× the
// container here).
func TestEncodeIntoBufferGrowsItOnce(t *testing.T) {
	s := NewSnapshot("app", "canonical", 1)
	s.Fields["G"] = Float64Matrix(matrix(200, 200))
	s.Fields["it"] = Int64(3)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Large allocations are rounded up to whole 8 KiB pages.
	if buf.Cap() > buf.Len()+8<<10 {
		t.Fatalf("a %d-byte container left the bytes.Buffer at capacity %d, want one container-sized allocation", buf.Len(), buf.Cap())
	}
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// A value the container cannot frame is refused before any of its bytes —
// name and tag included — reach the writer.
func TestEncodeFieldRefusesBeforeWriting(t *testing.T) {
	cases := map[string]struct {
		v    Value
		want string
	}{
		"ragged":      {Float64Matrix([][]float64{{1, 2}, {3}}), "ragged matrix"},
		"empty rows":  {Value{Tag: TFloat64_2, F2: make([][]float64, maxEmptyRows+1), Rows: maxEmptyRows + 1}, "empty rows"},
		"over 4 GiB":  {Value{Tag: TFloat64_2, F2: make([][]float64, 2), Rows: 2, Cols: 1 << 30}, "4 GiB"},
		"unknown tag": {Value{Tag: 99}, "unknown tag"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var w countingWriter
			err := encodeField(&w, "x", tc.v)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("encodeField: %v, want an error mentioning %q", err, tc.want)
			}
			if w.n != 0 {
				t.Fatalf("%d bytes written before the error", w.n)
			}
		})
	}
}

type failAfter struct{ left int }

var errWrite = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errWrite
	}
	f.left -= len(p)
	return len(p), nil
}

// A write error partway through a streamed payload surfaces from Encode.
func TestEncodeSurfacesStreamWriteError(t *testing.T) {
	s := NewSnapshot("app", "canonical", 1)
	s.Fields["G"] = Float64Matrix(matrix(40, 1000))
	if err := s.Encode(&failAfter{left: 3 * scratchBlockBytes}); !errors.Is(err, errWrite) {
		t.Fatalf("Encode: %v, want the writer's error", err)
	}
}
