// Package core implements pluggable parallelisation with checkpointing and
// run-time adaptation — the programming model of Medeiros & Sobral (ICPP'11).
//
// The base program is ordinary sequential Go code whose advisable methods
// are routed through Ctx.Call and whose advisable loops through For/ForSpan.
// Parallelisation, checkpointing and adaptation behaviour is attached to
// those *names* by Module values kept in separate source files — the Go
// equivalent of the paper's separately-woven aspect modules (Go has no AOP,
// so the join points are explicit; see DESIGN.md, "Programming model").
// With no modules plugged and Sequential mode, Call is a direct function
// call and For a plain loop: the base code runs strictly sequentially,
// exactly as the paper's "unplugged" deployment.
//
// The same base code then runs:
//
//   - in Shared mode, where ParallelMethod regions execute on an OpenMP-style
//     resizable thread team (§III.B),
//   - in Distributed mode, SPMD over an MPI-like world with object-aggregate
//     semantics, partitioned fields and scatter/gather/halo templates
//     (§III.C),
//   - in Hybrid mode, both combined,
//
// with application-level checkpointing (SafeData / SafePoints /
// IgnorableMethods, §IV.A) and run-time adaptation (§IV.B) provided by the
// engine.
package core

import (
	"fmt"

	"ppar/internal/partition"
	"ppar/internal/team"
)

// FieldClass is the paper's run-time adaptation classification (§IV.B):
// "each class field must be marked as Replicated, Partitioned or Local (by
// default, fields are considered Local)".
type FieldClass int

const (
	// Local fields belong to each replica alone and are never moved.
	Local FieldClass = iota
	// Replicated fields hold the same value on every replica; adaptation
	// and restart broadcast the master's copy.
	Replicated
	// Partitioned fields are arrays whose ownership follows a partition
	// layout; adaptation and restart scatter/gather owned blocks.
	Partitioned
)

// String returns the class name.
func (c FieldClass) String() string {
	switch c {
	case Local:
		return "local"
	case Replicated:
		return "replicated"
	case Partitioned:
		return "partitioned"
	}
	return fmt.Sprintf("FieldClass(%d)", int(c))
}

// MethodAdvice collects every template attached to one advisable method
// name. It is assembled by merging Modules at engine start.
type MethodAdvice struct {
	// Parallel marks the method as a parallel region (ParallelMethod
	// template): in Shared/Hybrid modes a thread team executes it.
	Parallel bool
	// Synchronised executes the method in mutual exclusion among team
	// threads (the paper's synchronised template).
	Synchronised bool
	// Single executes the method on the first-arriving team thread only.
	Single bool
	// Master executes the method on the team master thread only.
	Master bool
	// OnMasterRank executes the method on aggregate element 0 only
	// (distributed modes); other ranks skip it.
	OnMasterRank bool
	// BarrierBefore/BarrierAfter insert team (and rank, in distributed
	// modes) barriers around the method.
	BarrierBefore bool
	BarrierAfter  bool
	// ScatterBefore/GatherAfter name partitioned fields whose owned
	// blocks are distributed from / collected at aggregate element 0
	// around the method (the paper's ScatterBefore/GatherAfter).
	ScatterBefore []string
	GatherAfter   []string
	// AllGatherAfter names partitioned fields whose owned blocks are
	// collected at element 0 and re-broadcast in full after the method —
	// the "update" flavour all-to-all codes (e.g. molecular dynamics,
	// where every replica needs all positions) use.
	AllGatherAfter []string
	// UpdateBefore names partitioned matrix fields whose halo rows are
	// exchanged with neighbour ranks before the method (the paper's
	// "updated" primitive, needed by stencils).
	UpdateBefore []string
	// SafePointBefore/SafePointAfter attach a safe point to the method
	// boundary (the SafePoints template).
	SafePointBefore bool
	SafePointAfter  bool
	// Ignorable marks the method as skippable during replay (the
	// IgnorableMethods template).
	Ignorable bool
}

// LoopAdvice collects the templates attached to one advisable loop id.
type LoopAdvice struct {
	// Schedule and Chunk select the team work-sharing schedule.
	Schedule team.Schedule
	Chunk    int
	// PartitionField restricts the loop to the indices of the named
	// partitioned field owned by this rank (distributed modes).
	PartitionField string
	// NoWait suppresses the implicit team barrier after the loop.
	NoWait bool
}

// FieldSpec describes one application field named by modules.
type FieldSpec struct {
	Name      string
	Class     FieldClass
	Layout    partition.Kind
	ChunkSize int // for block-cyclic layouts
	SafeData  bool
}

// Module is one pluggable parallelisation/fault-tolerance module: a named
// bundle of template declarations that the engine merges and applies to the
// base program. Modules are plugged by listing them in Config.Modules —
// selecting a different list yields a different deployment of the same base
// code.
type Module struct {
	Name    string
	methods map[string]*MethodAdvice
	loops   map[string]*LoopAdvice
	fields  map[string]*FieldSpec
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:    name,
		methods: map[string]*MethodAdvice{},
		loops:   map[string]*LoopAdvice{},
		fields:  map[string]*FieldSpec{},
	}
}

func (m *Module) method(name string) *MethodAdvice {
	a, ok := m.methods[name]
	if !ok {
		a = &MethodAdvice{}
		m.methods[name] = a
	}
	return a
}

func (m *Module) loop(id string) *LoopAdvice {
	a, ok := m.loops[id]
	if !ok {
		a = &LoopAdvice{Schedule: team.Static, Chunk: 1}
		m.loops[id] = a
	}
	return a
}

func (m *Module) field(name string) *FieldSpec {
	f, ok := m.fields[name]
	if !ok {
		f = &FieldSpec{Name: name, Class: Local, Layout: partition.Block, ChunkSize: 1}
		m.fields[name] = f
	}
	return f
}

// ParallelMethod declares the method a parallel region.
func (m *Module) ParallelMethod(name string) *Module {
	m.method(name).Parallel = true
	return m
}

// Synchronised declares mutual exclusion for the method.
func (m *Module) Synchronised(name string) *Module {
	m.method(name).Synchronised = true
	return m
}

// SingleMethod declares first-arriving-thread execution.
func (m *Module) SingleMethod(name string) *Module {
	m.method(name).Single = true
	return m
}

// MasterMethod declares master-thread-only execution.
func (m *Module) MasterMethod(name string) *Module {
	m.method(name).Master = true
	return m
}

// OnMaster declares aggregate-element-0-only execution.
func (m *Module) OnMaster(name string) *Module {
	m.method(name).OnMasterRank = true
	return m
}

// BarrierBefore inserts a barrier before the method.
func (m *Module) BarrierBefore(name string) *Module {
	m.method(name).BarrierBefore = true
	return m
}

// BarrierAfter inserts a barrier after the method.
func (m *Module) BarrierAfter(name string) *Module {
	m.method(name).BarrierAfter = true
	return m
}

// ScatterBefore distributes the named partitioned fields before the method.
func (m *Module) ScatterBefore(name string, fields ...string) *Module {
	a := m.method(name)
	a.ScatterBefore = append(a.ScatterBefore, fields...)
	return m
}

// GatherAfter collects the named partitioned fields after the method.
func (m *Module) GatherAfter(name string, fields ...string) *Module {
	a := m.method(name)
	a.GatherAfter = append(a.GatherAfter, fields...)
	return m
}

// UpdateBefore exchanges halo rows of the named fields before the method.
func (m *Module) UpdateBefore(name string, fields ...string) *Module {
	a := m.method(name)
	a.UpdateBefore = append(a.UpdateBefore, fields...)
	return m
}

// AllGatherAfter collects and re-broadcasts the named partitioned fields in
// full after the method.
func (m *Module) AllGatherAfter(name string, fields ...string) *Module {
	a := m.method(name)
	a.AllGatherAfter = append(a.AllGatherAfter, fields...)
	return m
}

// SafePointAfter attaches a safe point after the method.
func (m *Module) SafePointAfter(name string) *Module {
	m.method(name).SafePointAfter = true
	return m
}

// SafePointBefore attaches a safe point before the method.
func (m *Module) SafePointBefore(name string) *Module {
	m.method(name).SafePointBefore = true
	return m
}

// Ignorable marks methods skippable during replay.
func (m *Module) Ignorable(names ...string) *Module {
	for _, n := range names {
		m.method(n).Ignorable = true
	}
	return m
}

// LoopSchedule sets the team schedule of a loop.
func (m *Module) LoopSchedule(id string, sched team.Schedule, chunk int) *Module {
	a := m.loop(id)
	a.Schedule = sched
	a.Chunk = chunk
	return m
}

// LoopPartition associates the loop with a partitioned field: in
// distributed modes each rank iterates only its owned indices.
func (m *Module) LoopPartition(id, field string) *Module {
	m.loop(id).PartitionField = field
	return m
}

// LoopNoWait removes the implicit barrier after the loop.
func (m *Module) LoopNoWait(id string) *Module {
	m.loop(id).NoWait = true
	return m
}

// PartitionedField classifies a field as partitioned with the given layout.
func (m *Module) PartitionedField(name string, kind partition.Kind) *Module {
	f := m.field(name)
	f.Class = Partitioned
	f.Layout = kind
	return m
}

// PartitionedBlockCyclic classifies a field as block-cyclic partitioned.
func (m *Module) PartitionedBlockCyclic(name string, chunk int) *Module {
	f := m.field(name)
	f.Class = Partitioned
	f.Layout = partition.BlockCyclic
	f.ChunkSize = chunk
	return m
}

// ReplicatedField classifies a field as replicated.
func (m *Module) ReplicatedField(name string) *Module {
	m.field(name).Class = Replicated
	return m
}

// LocalField classifies a field as local (the default).
func (m *Module) LocalField(name string) *Module {
	m.field(name).Class = Local
	return m
}

// SafeData marks fields to be saved in checkpoints.
func (m *Module) SafeData(names ...string) *Module {
	for _, n := range names {
		m.field(n).SafeData = true
	}
	return m
}

// adviceTable is the merged view over all plugged modules.
type adviceTable struct {
	methods map[string]*MethodAdvice
	loops   map[string]*LoopAdvice
	fields  map[string]*FieldSpec
}

// mergeModules combines modules in order; later modules extend (and for
// scalar settings override) earlier ones, enabling the paper's module
// composition ("modules can also be composed to attain complex forms of
// parallelisation").
func mergeModules(mods []*Module) *adviceTable {
	t := &adviceTable{
		methods: map[string]*MethodAdvice{},
		loops:   map[string]*LoopAdvice{},
		fields:  map[string]*FieldSpec{},
	}
	for _, m := range mods {
		if m == nil {
			continue
		}
		for name, a := range m.methods {
			dst, ok := t.methods[name]
			if !ok {
				dst = &MethodAdvice{}
				t.methods[name] = dst
			}
			dst.Parallel = dst.Parallel || a.Parallel
			dst.Synchronised = dst.Synchronised || a.Synchronised
			dst.Single = dst.Single || a.Single
			dst.Master = dst.Master || a.Master
			dst.OnMasterRank = dst.OnMasterRank || a.OnMasterRank
			dst.BarrierBefore = dst.BarrierBefore || a.BarrierBefore
			dst.BarrierAfter = dst.BarrierAfter || a.BarrierAfter
			dst.SafePointBefore = dst.SafePointBefore || a.SafePointBefore
			dst.SafePointAfter = dst.SafePointAfter || a.SafePointAfter
			dst.Ignorable = dst.Ignorable || a.Ignorable
			dst.ScatterBefore = append(dst.ScatterBefore, a.ScatterBefore...)
			dst.GatherAfter = append(dst.GatherAfter, a.GatherAfter...)
			dst.UpdateBefore = append(dst.UpdateBefore, a.UpdateBefore...)
			dst.AllGatherAfter = append(dst.AllGatherAfter, a.AllGatherAfter...)
		}
		for id, a := range m.loops {
			cp := *a
			t.loops[id] = &cp
		}
		for name, f := range m.fields {
			dst, ok := t.fields[name]
			if !ok {
				cp := *f
				t.fields[name] = &cp
				continue
			}
			if f.Class != Local {
				dst.Class = f.Class
				dst.Layout = f.Layout
				dst.ChunkSize = f.ChunkSize
			}
			dst.SafeData = dst.SafeData || f.SafeData
		}
	}
	return t
}
