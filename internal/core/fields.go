package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ppar/internal/ckpt"
	"ppar/internal/mp"
	"ppar/internal/partition"
	"ppar/internal/serial"
)

// boundFields resolves the field names used by modules against one
// application instance. Reflection runs exactly once per (application type,
// field set) shape: the resolved field offsets and kinds are cached in a
// package registry, and binding an instance compiles each field into a
// typed-pointer accessor. Data-movement points (scatter/gather/halo/
// checkpoint) then read and write through the accessors without touching
// reflection at all — in a fleet of identical runs, only the very first
// bind pays the reflective walk.
//
// Supported field kinds: float64, int, int64, []float64, []int,
// [][]float64 (rectangular).
type boundFields struct {
	app   App
	specs map[string]*FieldSpec
	acc   map[string]*fieldAccessor

	// bounds holds per-field explicit Block cut points installed by the
	// Task-mode rebalancer (nil entries mean the even division). All data
	// movement goes through layoutFor, so gather/scatter/halo/shard paths
	// observe moved boundaries automatically. Written only at safe points,
	// between the collective barriers of the rebalance protocol.
	bounds map[string][]int
	// rebalances counts the cross-rank rebalances applied on this rank; all
	// ranks increment it in lockstep (the decision is computed from
	// allgathered data), which is what lets RunStats expose it.
	rebalances atomic.Int64
}

// fieldKind discriminates the compiled accessors; the per-call type-switch
// on an interface value is replaced by this small integer dispatch.
type fieldKind uint8

const (
	kindFloat64 fieldKind = iota
	kindInt
	kindInt64
	kindFloat64s
	kindInts
	kindMatrix
)

// fieldAccessor is one field's compiled access path: a typed pointer into
// the application struct, extracted once at bind time. Exactly one pointer
// is set, per kind. []int fields additionally keep a reusable []int64
// conversion buffer so repeated captures of the same field allocate nothing
// once the buffer has grown to size.
type fieldAccessor struct {
	kind fieldKind
	f64  *float64
	i    *int
	i64  *int64
	fs   *[]float64
	is   *[]int
	f2   *[][]float64

	i64buf []int64 // kindInts: reused by value(); aliased by the returned Value
}

// value extracts the field as a serial.Value sharing the live backing
// arrays (for kindInts, sharing the accessor's conversion buffer, which is
// overwritten by the next value() call — the same "persist before the next
// capture" contract the other aliasing kinds already carry).
func (a *fieldAccessor) value() serial.Value {
	switch a.kind {
	case kindFloat64:
		return serial.Float64(*a.f64)
	case kindInt:
		return serial.Int64(int64(*a.i))
	case kindInt64:
		return serial.Int64(*a.i64)
	case kindFloat64s:
		return serial.Float64s(*a.fs)
	case kindInts:
		v := *a.is
		if cap(a.i64buf) < len(v) {
			a.i64buf = make([]int64, len(v))
		}
		buf := a.i64buf[:len(v)]
		for i, x := range v {
			buf[i] = int64(x)
		}
		return serial.Int64s(buf)
	default:
		return serial.Float64Matrix(*a.f2)
	}
}

// setValue writes a serial.Value back into the field. Slice and matrix
// contents are copied into the existing backing arrays when shapes match,
// so that other references to the same arrays (e.g. the red/black views of
// a stencil) observe the restored data.
func (a *fieldAccessor) setValue(v serial.Value) {
	switch a.kind {
	case kindFloat64:
		*a.f64 = v.F
	case kindInt:
		*a.i = int(v.I)
	case kindInt64:
		*a.i64 = v.I
	case kindFloat64s:
		if cur := *a.fs; len(cur) == len(v.Fs) {
			copy(cur, v.Fs)
		} else {
			*a.fs = append([]float64(nil), v.Fs...)
		}
	case kindInts:
		if cur := *a.is; len(cur) == len(v.Is) {
			for i, x := range v.Is {
				cur[i] = int(x)
			}
		} else {
			is := make([]int, len(v.Is))
			for i, x := range v.Is {
				is[i] = int(x)
			}
			*a.is = is
		}
	default:
		cur := *a.f2
		if len(cur) == v.Rows && (v.Rows == 0 || len(cur[0]) == v.Cols) {
			for i := range cur {
				copy(cur[i], v.F2[i])
			}
		} else {
			m := make([][]float64, v.Rows)
			for i := range m {
				m[i] = append([]float64(nil), v.F2[i]...)
			}
			*a.f2 = m
		}
	}
}

// shapeField is one entry of a compiled shape: where the field lives in the
// struct and what kind it is.
type shapeField struct {
	index int
	kind  fieldKind
}

// shapeKey identifies a compiled shape: the concrete application struct
// type plus the signature of the bound field set. Two modules binding
// different field subsets of the same struct compile separately.
type shapeKey struct {
	typ reflect.Type
	sig string
}

// shapeRegistry caches compiled shapes process-wide. Values are
// map[string]shapeField, immutable once stored.
var shapeRegistry sync.Map

// specSignature is the field-set half of a shape key: the sorted bound
// names. Kinds are a property of the struct type, so names suffice.
func specSignature(specs map[string]*FieldSpec) string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

// compileShape resolves every bound field against the struct type by
// reflection — the only reflective walk in the package, performed once per
// shape and cached.
func compileShape(st reflect.Type, specs map[string]*FieldSpec) (map[string]shapeField, error) {
	shape := make(map[string]shapeField, len(specs))
	for name := range specs {
		sf, ok := st.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("core: field %q named by a module does not exist on *%s", name, st)
		}
		if sf.PkgPath != "" {
			return nil, fmt.Errorf("core: field %q on *%s is unexported; module-managed fields must be exported", name, st)
		}
		if len(sf.Index) != 1 {
			return nil, fmt.Errorf("core: field %q on *%s is promoted from an embedded struct; module-managed fields must be declared directly", name, st)
		}
		kind, err := fieldKindOf(sf.Type)
		if err != nil {
			return nil, fmt.Errorf("core: field %q: %w", name, err)
		}
		shape[name] = shapeField{index: sf.Index[0], kind: kind}
	}
	return shape, nil
}

var (
	typFloat64  = reflect.TypeOf(float64(0))
	typInt      = reflect.TypeOf(int(0))
	typInt64    = reflect.TypeOf(int64(0))
	typFloat64s = reflect.TypeOf([]float64(nil))
	typInts     = reflect.TypeOf([]int(nil))
	typMatrix   = reflect.TypeOf([][]float64(nil))
)

func fieldKindOf(t reflect.Type) (fieldKind, error) {
	switch t {
	case typFloat64:
		return kindFloat64, nil
	case typInt:
		return kindInt, nil
	case typInt64:
		return kindInt64, nil
	case typFloat64s:
		return kindFloat64s, nil
	case typInts:
		return kindInts, nil
	case typMatrix:
		return kindMatrix, nil
	}
	return 0, fmt.Errorf("unsupported kind %s (supported: float64, int, int64, []float64, []int, [][]float64)", t)
}

func bindFields(app App, specs map[string]*FieldSpec) (*boundFields, error) {
	b := &boundFields{app: app, specs: specs, acc: map[string]*fieldAccessor{}}
	rv := reflect.ValueOf(app)
	if rv.Kind() != reflect.Pointer || rv.Elem().Kind() != reflect.Struct {
		if len(specs) == 0 {
			return b, nil
		}
		return nil, fmt.Errorf("core: application must be a pointer to struct to use field templates, got %T", app)
	}
	sv := rv.Elem()
	key := shapeKey{typ: sv.Type(), sig: specSignature(specs)}
	cached, ok := shapeRegistry.Load(key)
	if !ok {
		shape, err := compileShape(sv.Type(), specs)
		if err != nil {
			return nil, err
		}
		cached, _ = shapeRegistry.LoadOrStore(key, shape)
	}
	for name, sf := range cached.(map[string]shapeField) {
		a := &fieldAccessor{kind: sf.kind}
		p := sv.Field(sf.index).Addr().Interface()
		switch sf.kind {
		case kindFloat64:
			a.f64 = p.(*float64)
		case kindInt:
			a.i = p.(*int)
		case kindInt64:
			a.i64 = p.(*int64)
		case kindFloat64s:
			a.fs = p.(*[]float64)
		case kindInts:
			a.is = p.(*[]int)
		default:
			a.f2 = p.(*[][]float64)
		}
		b.acc[name] = a
	}
	return b, nil
}

// names returns the sorted field names matching pred — iteration order must
// be deterministic because distributed ranks perform the same collective
// sequence field by field.
func (b *boundFields) names(pred func(*FieldSpec) bool) []string {
	var out []string
	for n, s := range b.specs {
		if pred(s) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (b *boundFields) safeDataNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.SafeData })
}

func (b *boundFields) partitionedNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.Class == Partitioned })
}

func (b *boundFields) replicatedNames() []string {
	return b.names(func(s *FieldSpec) bool { return s.Class == Replicated })
}

// value extracts a field as a serial.Value (sharing backing arrays).
func (b *boundFields) value(name string) (serial.Value, error) {
	a, ok := b.acc[name]
	if !ok {
		return serial.Value{}, fmt.Errorf("core: field %q not bound", name)
	}
	return a.value(), nil
}

// setValue writes a serial.Value back into the field.
func (b *boundFields) setValue(name string, v serial.Value) error {
	a, ok := b.acc[name]
	if !ok {
		return fmt.Errorf("core: field %q not bound", name)
	}
	a.setValue(v)
	return nil
}

// layoutFor builds the partition layout of a partitioned field for the
// given number of parts. Matrices partition by rows, slices by elements.
func (b *boundFields) layoutFor(name string, parts int) (partition.Layout, error) {
	spec, ok := b.specs[name]
	if !ok || spec.Class != Partitioned {
		return partition.Layout{}, fmt.Errorf("core: field %q is not partitioned", name)
	}
	n, err := b.length(name)
	if err != nil {
		return partition.Layout{}, err
	}
	if spec.Layout == partition.BlockCyclic {
		return partition.NewBlockCyclic(n, parts, spec.ChunkSize), nil
	}
	l := partition.New(spec.Layout, n, parts)
	if bs := b.bounds[name]; spec.Layout == partition.Block && len(bs) == parts+1 {
		l = l.WithBounds(bs)
	}
	return l, nil
}

// setBounds installs (or, with nil, clears) the explicit Block cut points of
// a partitioned field. The rebalance protocol calls it on every rank with
// identical values, after the data movement that makes them true.
func (b *boundFields) setBounds(name string, bounds []int) {
	if b.bounds == nil {
		b.bounds = map[string][]int{}
	}
	b.bounds[name] = bounds
}

// length reports the partitionable extent of a field.
func (b *boundFields) length(name string) (int, error) {
	a, ok := b.acc[name]
	if !ok {
		return 0, fmt.Errorf("core: field %q not bound", name)
	}
	switch a.kind {
	case kindFloat64s:
		return len(*a.fs), nil
	case kindInts:
		return len(*a.is), nil
	case kindMatrix:
		return len(*a.f2), nil
	}
	return 0, fmt.Errorf("core: field %q is scalar and cannot be partitioned", name)
}

// blockPool recycles packed blocks: a rank that has unpacked a block it
// received returns it, and the next pack on any rank reuses it, so a steady
// checkpoint cadence moves partitioned data without allocating. A pooled
// block too small for the request is dropped.
var blockPool sync.Pool

func getBlock(n int) []float64 {
	if p, _ := blockPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]float64, 0, n)
}

func putBlock(v []float64) { blockPool.Put(&v) }

// packOwned flattens the indices of a partitioned field owned by part p
// into a float64 vector (matrices flatten row-major).
func (b *boundFields) packOwned(name string, l partition.Layout, p int) ([]float64, error) {
	a := b.acc[name]
	switch a.kind {
	case kindFloat64s:
		v := *a.fs
		out := getBlock(l.Count(p))
		l.Indices(p, func(i int) { out = append(out, v[i]) })
		return out, nil
	case kindInts:
		v := *a.is
		out := getBlock(l.Count(p))
		l.Indices(p, func(i int) { out = append(out, float64(v[i])) })
		return out, nil
	case kindMatrix:
		v := *a.f2
		cols := 0
		if len(v) > 0 {
			cols = len(v[0])
		}
		out := getBlock(l.Count(p) * cols)
		l.Indices(p, func(i int) { out = append(out, v[i]...) })
		return out, nil
	}
	return nil, fmt.Errorf("core: field %q cannot be packed", name)
}

// unpackOwned writes a packed vector back into the indices owned by part p.
func (b *boundFields) unpackOwned(name string, l partition.Layout, p int, data []float64) error {
	a := b.acc[name]
	switch a.kind {
	case kindFloat64s:
		v := *a.fs
		k := 0
		l.Indices(p, func(i int) { v[i] = data[k]; k++ })
		return nil
	case kindInts:
		v := *a.is
		k := 0
		l.Indices(p, func(i int) { v[i] = int(data[k]); k++ })
		return nil
	case kindMatrix:
		v := *a.f2
		cols := 0
		if len(v) > 0 {
			cols = len(v[0])
		}
		k := 0
		l.Indices(p, func(i int) {
			copy(v[i], data[k:k+cols])
			k += cols
		})
		return nil
	}
	return fmt.Errorf("core: field %q cannot be unpacked", name)
}

// packSpan flattens the contiguous index range [lo, hi) of a partitioned
// field into a float64 vector (matrices flatten row-major) — the transfer
// unit of the Task-mode cross-rank rebalancer, which moves spans between the
// old and new Block boundaries.
func (b *boundFields) packSpan(name string, lo, hi int) ([]float64, error) {
	a := b.acc[name]
	if a == nil {
		return nil, fmt.Errorf("core: field %q not bound", name)
	}
	switch a.kind {
	case kindFloat64s:
		return append([]float64(nil), (*a.fs)[lo:hi]...), nil
	case kindInts:
		v := *a.is
		out := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, float64(v[i]))
		}
		return out, nil
	case kindMatrix:
		v := *a.f2
		cols := 0
		if len(v) > 0 {
			cols = len(v[0])
		}
		out := make([]float64, 0, (hi-lo)*cols)
		for i := lo; i < hi; i++ {
			out = append(out, v[i]...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: field %q cannot be packed", name)
}

// unpackSpan writes a packed vector back into the contiguous index range
// [lo, hi) of a partitioned field.
func (b *boundFields) unpackSpan(name string, lo, hi int, data []float64) error {
	a := b.acc[name]
	if a == nil {
		return fmt.Errorf("core: field %q not bound", name)
	}
	switch a.kind {
	case kindFloat64s:
		copy((*a.fs)[lo:hi], data)
		return nil
	case kindInts:
		v := *a.is
		for i := lo; i < hi; i++ {
			v[i] = int(data[i-lo])
		}
		return nil
	case kindMatrix:
		v := *a.f2
		cols := 0
		if len(v) > 0 {
			cols = len(v[0])
		}
		k := 0
		for i := lo; i < hi; i++ {
			copy(v[i], data[k:k+cols])
			k += cols
		}
		return nil
	}
	return fmt.Errorf("core: field %q cannot be unpacked", name)
}

// gatherAt collects the owned blocks of a partitioned field at root,
// leaving root's copy of the field fully populated. Each peer block is
// copied twice — packed on its rank, unpacked on root — and handed over
// typed, never byte-encoded, where the transport allows it.
func (b *boundFields) gatherAt(name string, c *mp.Comm, root, parts int) error {
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	var mine []float64 // root's block is already in place
	if c.Rank() != root {
		if mine, err = b.packOwned(name, l, c.Rank()); err != nil {
			return err
		}
	}
	got, err := c.GatherF64s(root, mine)
	if err != nil {
		return fmt.Errorf("core: gathering field %q: %w", name, err)
	}
	if c.Rank() != root {
		return nil
	}
	for r := 0; r < parts; r++ {
		if r == root {
			continue
		}
		if err := b.unpackOwned(name, l, r, got[r]); err != nil {
			return err
		}
		putBlock(got[r])
	}
	return nil
}

// scatterFrom distributes root's full copy of a partitioned field: every
// rank receives (only) its owned block, packed on root and handed over.
func (b *boundFields) scatterFrom(name string, c *mp.Comm, root, parts int) error {
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	var blocks [][]float64
	if c.Rank() == root {
		blocks = make([][]float64, parts)
		for r := 0; r < parts; r++ {
			if r == root {
				continue // root's block never leaves
			}
			if blocks[r], err = b.packOwned(name, l, r); err != nil {
				return err
			}
		}
	}
	mine, err := c.ScatterF64s(root, blocks)
	if err != nil {
		return fmt.Errorf("core: scattering field %q: %w", name, err)
	}
	if c.Rank() == root {
		return nil
	}
	if err := b.unpackOwned(name, l, c.Rank(), mine); err != nil {
		return err
	}
	putBlock(mine)
	return nil
}

// bcastField broadcasts root's full copy of a (typically replicated) field.
func (b *boundFields) bcastField(name string, c *mp.Comm, root int) error {
	var payload []byte
	if c.Rank() == root {
		v, err := b.value(name)
		if err != nil {
			return err
		}
		snap := serial.NewSnapshot("bcast", "f", 0)
		snap.Fields[name] = v
		payload = encodeSnapshot(snap)
	}
	payload, err := c.Bcast(root, payload)
	if err != nil {
		return fmt.Errorf("core: broadcasting field %q: %w", name, err)
	}
	if c.Rank() == root {
		return nil
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	return b.setValue(name, snap.Fields[name])
}

// Halo tags: exchanges between one rank pair are strictly ordered by the
// SPMD control flow and the transport preserves per-(sender,tag) FIFO
// order, so fixed tags are unambiguous. (They must NOT depend on how many
// exchanges a rank has performed: a replica that joins at run time skipped
// all earlier exchanges during its replay.)
const (
	haloTagDown = 0x3000
	haloTagUp   = 0x3001
)

// haloExchange refreshes the boundary rows of a block-partitioned matrix
// field: each rank sends its first/last owned row to the neighbouring rank
// and installs the neighbour's edge row next to its own block — the
// paper's "update" primitive, required by five-point stencils.
func (b *boundFields) haloExchange(name string, c *mp.Comm, parts int) error {
	spec := b.specs[name]
	if spec == nil || spec.Class != Partitioned || spec.Layout != partition.Block {
		return fmt.Errorf("core: halo exchange requires a block-partitioned field, got %q", name)
	}
	a := b.acc[name]
	if a == nil || a.kind != kindMatrix {
		return fmt.Errorf("core: halo exchange requires a [][]float64 field, got %q", name)
	}
	fv := *a.f2
	l, err := b.layoutFor(name, parts)
	if err != nil {
		return err
	}
	lo, hi := l.Range(c.Rank())
	tagDown, tagUp := haloTagDown, haloTagUp
	if lo >= hi {
		return nil // empty part: no rows, no neighbours
	}
	below, above := l.Neighbours(c.Rank())
	// Post sends first (transports buffer), then receive. The edge rows are
	// live, so each is sent as a copy the receiver may keep.
	if below >= 0 {
		if err := c.SendF64s(below, tagDown, slices.Clone(fv[lo])); err != nil {
			return fmt.Errorf("core: halo send down %q: %w", name, err)
		}
	}
	if above >= 0 {
		if err := c.SendF64s(above, tagUp, slices.Clone(fv[hi-1])); err != nil {
			return fmt.Errorf("core: halo send up %q: %w", name, err)
		}
	}
	if below >= 0 {
		row, err := c.RecvF64s(below, tagUp)
		if err != nil {
			return fmt.Errorf("core: halo recv from below %q: %w", name, err)
		}
		copy(fv[lo-1], row)
	}
	if above >= 0 {
		row, err := c.RecvF64s(above, tagDown)
		if err != nil {
			return fmt.Errorf("core: halo recv from above %q: %w", name, err)
		}
		copy(fv[hi], row)
	}
	return nil
}

// snapshot builds a serial snapshot of all SafeData fields.
func (b *boundFields) snapshot(app, mode string, sp uint64) (*serial.Snapshot, error) {
	snap := serial.NewSnapshot(app, mode, sp)
	for _, name := range b.safeDataNames() {
		v, err := b.value(name)
		if err != nil {
			return nil, err
		}
		snap.Fields[name] = v
	}
	return snap, nil
}

// restore writes a snapshot's fields back into the application.
func (b *boundFields) restore(snap *serial.Snapshot) error {
	for name, v := range snap.Fields {
		if _, ok := b.acc[name]; !ok {
			return fmt.Errorf("core: snapshot field %q does not exist on the application", name)
		}
		if err := b.setValue(name, v); err != nil {
			return err
		}
	}
	return nil
}

// shardSnapshot builds one rank's local snapshot: owned blocks of
// partitioned SafeData fields plus full copies of everything else. Each
// partitioned field also records its partition layout (ckpt.LayoutField
// metadata), so a manifest-committed save can be repartitioned into a
// different world size or execution mode at restart.
func (b *boundFields) shardSnapshot(app string, sp uint64, rank, parts int) (*serial.Snapshot, error) {
	snap := serial.NewSnapshot(app, fmt.Sprintf("shard-%d/%d", rank, parts), sp)
	for _, name := range b.safeDataNames() {
		if b.specs[name].Class == Partitioned {
			l, err := b.layoutFor(name, parts)
			if err != nil {
				return nil, err
			}
			blk, err := b.packOwned(name, l, rank)
			if err != nil {
				return nil, err
			}
			sl, err := b.shardLayout(name)
			if err != nil {
				return nil, err
			}
			snap.Fields[name] = serial.Float64s(blk)
			snap.Fields[ckpt.LayoutField(name)] = ckpt.LayoutValue(sl)
			continue
		}
		v, err := b.value(name)
		if err != nil {
			return nil, err
		}
		snap.Fields[name] = v
	}
	return snap, nil
}

// shardLayout describes how a partitioned field is split, in the form the
// re-sharding restore consumes.
func (b *boundFields) shardLayout(name string) (ckpt.ShardLayout, error) {
	spec := b.specs[name]
	sl := ckpt.ShardLayout{Kind: spec.Layout, Chunk: spec.ChunkSize}
	if sl.Chunk < 1 {
		sl.Chunk = 1
	}
	a := b.acc[name]
	switch a.kind {
	case kindFloat64s:
		sl.Elem, sl.N = ckpt.ElemFloats, len(*a.fs)
	case kindInts:
		sl.Elem, sl.N = ckpt.ElemInts, len(*a.is)
	case kindMatrix:
		v := *a.f2
		sl.Elem, sl.N = ckpt.ElemMatrix, len(v)
		if len(v) > 0 {
			sl.Cols = len(v[0])
		}
	default:
		return ckpt.ShardLayout{}, fmt.Errorf("core: partitioned field %q has unsupported kind", name)
	}
	if spec.Layout == partition.Block {
		// Record any rebalanced cut points: a same-topology restore must
		// unpack (and keep computing) under the boundaries the shards were
		// packed with, and a re-shard must reassemble through them.
		sl.Bounds = b.bounds[name]
	}
	return sl, nil
}

// restoreShard writes a rank-local snapshot back: partitioned fields into
// owned blocks, the rest verbatim; layout metadata is restore-time input
// for re-sharding, not application data.
func (b *boundFields) restoreShard(snap *serial.Snapshot, rank, parts int) error {
	for name, v := range snap.Fields {
		if ckpt.IsLayoutField(name) {
			continue
		}
		spec, ok := b.specs[name]
		if !ok {
			return fmt.Errorf("core: shard field %q unknown", name)
		}
		if spec.Class == Partitioned {
			l, err := b.layoutFor(name, parts)
			if err != nil {
				return err
			}
			// A shard packed under rebalanced boundaries must be unpacked
			// under them too: the recorded layout metadata wins over the
			// fresh (even) live layout, and its cut points are installed so
			// the resumed run keeps computing — and checkpointing — under
			// the boundaries the save captured.
			if lv, ok := snap.Fields[ckpt.LayoutField(name)]; ok {
				sl, perr := ckpt.ParseLayout(name, lv)
				if perr != nil {
					return perr
				}
				if spec.Layout == partition.Block && len(sl.Bounds) == parts+1 {
					l = l.WithBounds(sl.Bounds)
					b.setBounds(name, sl.Bounds)
				}
			}
			if err := b.unpackOwned(name, l, rank, v.Fs); err != nil {
				return err
			}
			continue
		}
		if err := b.setValue(name, v); err != nil {
			return err
		}
	}
	return nil
}

func encodeSnapshot(s *serial.Snapshot) []byte {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		panic(fmt.Sprintf("core: in-memory snapshot encode failed: %v", err))
	}
	return buf.Bytes()
}

func decodeSnapshot(b []byte) (*serial.Snapshot, error) {
	return serial.Decode(bytes.NewReader(b))
}
