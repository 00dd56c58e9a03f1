// Package emu is the functional emulator: it executes a program
// architecturally and produces the dynamic instruction stream consumed by
// the predictors, the path machinery, and the timing core.
//
// The timing simulator is execution-driven: it steps the emulator as it
// fetches down the correct path, so the emulator's register file and memory
// always hold the architectural state at the current fetch point. That is
// exactly the state a spawned microthread reads its live-ins from (the
// spawn point is chosen so that all live-in dependences are satisfied
// architecturally — Section 4.2.4 of the paper).
package emu

import (
	"fmt"
	"sort"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// pageBits sizes memory pages: 4096 words per page.
const pageBits = 12

// Memory is a sparse, paged word-addressed data memory. Programs touch a
// handful of pages (data segment plus stack), so pages live in a small
// slice scanned linearly, fronted by a one-entry cache of the last page
// hit; both beat a map's hashing on this access pattern.
type Memory struct {
	pageAddrs []isa.Addr // page numbers, parallel to pages
	pages     []*[1 << pageBits]isa.Word
	lastAddr  isa.Addr // page number of the last page hit
	lastPg    *[1 << pageBits]isa.Word
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

// page returns the page with number pn, or nil if it was never written.
func (m *Memory) page(pn isa.Addr) *[1 << pageBits]isa.Word {
	if m.lastPg != nil && pn == m.lastAddr {
		return m.lastPg
	}
	for i, a := range m.pageAddrs {
		if a == pn {
			m.lastAddr, m.lastPg = pn, m.pages[i] //dpbp:nonarch last-page lookup cache, not architectural state
			return m.lastPg
		}
	}
	return nil
}

// Load returns the word at addr (zero if never written).
func (m *Memory) Load(addr isa.Addr) isa.Word {
	pg := m.page(addr >> pageBits)
	if pg == nil {
		return 0
	}
	return pg[addr&(1<<pageBits-1)]
}

// Store writes the word at addr.
func (m *Memory) Store(addr isa.Addr, v isa.Word) {
	pn := addr >> pageBits
	pg := m.page(pn)
	if pg == nil {
		pg = new([1 << pageBits]isa.Word)
		m.pageAddrs = append(m.pageAddrs, pn)
		m.pages = append(m.pages, pg)
		m.lastAddr, m.lastPg = pn, pg
	}
	pg[addr&(1<<pageBits-1)] = v
}

// MemWord is one nonzero word of a memory image, as reported by Snapshot.
type MemWord struct {
	Addr isa.Addr
	Val  isa.Word
}

// Snapshot appends every nonzero word of the memory to dst in ascending
// address order and returns the extended slice. The order is independent
// of page allocation history, so two memories with equal contents always
// snapshot identically — which is what makes the snapshot comparable
// across independently-run machines (differential verification diffs the
// final memory image this way).
func (m *Memory) Snapshot(dst []MemWord) []MemWord {
	order := make([]int, len(m.pageAddrs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return m.pageAddrs[order[a]] < m.pageAddrs[order[b]]
	})
	for _, i := range order {
		base := m.pageAddrs[i] << pageBits
		pg := m.pages[i]
		for off, v := range pg {
			if v != 0 {
				dst = append(dst, MemWord{Addr: base + isa.Addr(off), Val: v})
			}
		}
	}
	return dst
}

// Record describes one retired dynamic instruction.
type Record struct {
	// Seq is the dynamic sequence number, starting at 0.
	Seq uint64
	// PC is the instruction's address.
	PC isa.Addr
	// Inst is the decoded instruction.
	Inst isa.Inst
	// NextPC is the architecturally correct next PC.
	NextPC isa.Addr
	// Taken reports whether a control-flow instruction redirected
	// (conditional taken, or any jump/call/ret). Always false for
	// non-branches.
	Taken bool
	// SrcVal holds the values of the source registers, in ReadsInto
	// order (the names are the PC's isa.Decoded.Src).
	SrcVal [2]isa.Word
	// DstVal is the value written to the destination register, if any.
	DstVal isa.Word
	// EA is the effective address for loads and stores.
	EA isa.Addr
}

// Machine is the architectural state of one running program.
type Machine struct {
	Prog *program.Program
	Regs [isa.NumRegs]isa.Word
	Mem  *Memory

	// code and dec are Prog.Code and Prog.Decoded(), held so Step pays
	// table reads per dynamic instruction instead of decode switches.
	code []isa.Inst
	dec  []isa.Decoded

	pc     isa.Addr
	seq    uint64
	halted bool
}

// New creates a machine with the program loaded: data image installed,
// SP/GP initialised by the program's own prologue, PC at the entry point.
func New(p *program.Program) *Machine {
	m := &Machine{Prog: p, Mem: NewMemory(), pc: p.Entry, code: p.Code, dec: p.Decoded()}
	for i, w := range p.Data {
		m.Mem.Store(p.DataBase+isa.Addr(i), w)
	}
	return m
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() isa.Addr { return m.pc }

// Seq returns the sequence number the next Step will produce.
func (m *Machine) Seq() uint64 { return m.seq }

// Halted reports whether the program has reached its halt idiom
// (an unconditional jump to itself).
func (m *Machine) Halted() bool { return m.halted }

// Reg returns the current value of r.
func (m *Machine) Reg(r isa.Reg) isa.Word {
	if r == isa.RZero {
		return 0
	}
	return m.Regs[r]
}

// setReg writes r, discarding writes to RZero.
func (m *Machine) setReg(r isa.Reg, v isa.Word) {
	if r != isa.RZero {
		m.Regs[r] = v
	}
}

// Step executes one instruction and fills rec with its retirement record.
// It returns false without executing anything when the machine is halted.
// Step panics on structural errors (PC out of range, micro-instruction in
// primary code); Program.Validate prevents both for generated programs.
func (m *Machine) Step(rec *Record) bool {
	if m.halted {
		return false
	}
	if !m.Prog.Valid(m.pc) {
		panic(fmt.Sprintf("emu: PC %d out of range in %q", m.pc, m.Prog.Name))
	}

	rec.Seq = m.seq
	rec.PC = m.pc
	rec.Inst = m.code[m.pc]
	rec.Taken = false
	rec.EA = 0
	rec.DstVal = 0

	// Regs[RZero] is never written (setReg discards, Reset zeroes), so
	// plain indexing reads the architecturally-correct zero without the
	// Reg accessor's branch — and, because Decoded zero-pads Src past
	// NSrc, it also yields the required zeros for the unused SrcVal slots.
	in := &rec.Inst
	d := &m.dec[m.pc]
	rec.SrcVal[0] = m.Regs[d.Src[0]]
	rec.SrcVal[1] = m.Regs[d.Src[1]]

	next := m.pc + 1
	switch d.Kind {
	case isa.KindALU:
		v := isa.EvalALU(in.Op, m.Regs[in.Src1], m.Regs[in.Src2], in.Imm)
		m.setReg(in.Dst, v)
		rec.DstVal = v

	case isa.KindLoad:
		ea := isa.Addr(m.Regs[in.Src1] + in.Imm)
		v := m.Mem.Load(ea)
		m.setReg(in.Dst, v)
		rec.EA = ea
		rec.DstVal = v

	case isa.KindStore:
		ea := isa.Addr(m.Regs[in.Src1] + in.Imm)
		m.Mem.Store(ea, m.Regs[in.Src2])
		rec.EA = ea

	case isa.KindCond:
		if isa.BranchTaken(in.Op, m.Regs[in.Src1], m.Regs[in.Src2]) {
			next = in.Target
			rec.Taken = true
		}

	case isa.KindJmp:
		next = in.Target
		rec.Taken = true
		if next == m.pc {
			m.halted = true
		}

	case isa.KindJmpInd:
		next = isa.Addr(m.Regs[in.Src1])
		rec.Taken = true

	case isa.KindCall:
		m.setReg(isa.RRA, isa.Word(m.pc+1))
		rec.DstVal = isa.Word(m.pc + 1)
		next = in.Target
		rec.Taken = true

	case isa.KindRet:
		next = isa.Addr(m.Regs[in.Src1])
		rec.Taken = true

	default:
		panic(fmt.Sprintf("emu: cannot execute %v at %d", in.Op, m.pc))
	}

	rec.NextPC = next
	m.pc = next
	m.seq++
	return true
}

// Run executes up to maxInsts instructions, invoking visit for each record.
// It stops early at halt or when visit returns false, and returns the
// number of instructions executed.
func (m *Machine) Run(maxInsts uint64, visit func(*Record) bool) uint64 {
	var rec Record
	var n uint64
	for n < maxInsts {
		if !m.Step(&rec) {
			break
		}
		n++
		if visit != nil && !visit(&rec) {
			break
		}
	}
	return n
}

// Reset rewinds the machine to the initial state for program p — data
// image installed, registers zeroed, PC at the entry point — reusing the
// memory pages already allocated by a previous run.
func (m *Machine) Reset(p *program.Program) {
	m.Prog = p
	m.Regs = [isa.NumRegs]isa.Word{}
	for _, pg := range m.Mem.pages {
		*pg = [1 << pageBits]isa.Word{}
	}
	for i, w := range p.Data {
		m.Mem.Store(p.DataBase+isa.Addr(i), w)
	}
	m.pc = p.Entry
	m.seq = 0
	m.halted = false
	m.code = p.Code
	m.dec = p.Decoded()
}
