// Package jit models the GPU driver's just-in-time kernel compiler: it
// lowers kernel IR to flat, machine-specific device binaries and decodes
// such binaries back to IR.
//
// In the real system the driver JIT-compiles OpenCL C when
// clBuildProgram is issued; here the "source" is already IR, so
// compilation is serialization into the 16-byte/instruction GEN-flavoured
// encoding plus a small header. The significance of the binary form is
// that it is the interception point for the GT-Pin binary rewriter
// (gtpin/internal/gtpin), which decodes, instruments, and re-encodes the
// binary before the driver hands it to the device — exactly the flow in
// Figure 1 of the paper. Downstream, a binary decodes once, on its first
// Kernel call, into one kernel that every backend dispatching it runs in
// the shared execution engine (gtpin/internal/engine); code that rewrites
// IR (the GT-Pin rewriter, the translator) calls Decode for its own copy.
package jit

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// Magic identifies a device kernel binary.
const Magic = 0x424E4547 // "GENB"

// Version is the binary format version. Version 2 added the dialect
// byte to the header and encodes instruction words in the kernel's
// dialect surface rather than always in GEN's.
const Version = 2

// Binary is a compiled, machine-specific kernel binary as produced by the
// driver JIT and consumed by the device. Its Code does not change once
// the binary is built: Kernel keeps the kernel decoded from it.
type Binary struct {
	Code []byte

	// decoded is the first Kernel result, shared by every later call.
	decoded atomic.Pointer[decoded]
}

// decoded is one Kernel result.
type decoded struct {
	k   *kernel.Kernel
	err error
}

// Kernel returns the binary's decoded kernel. The first call decodes
// and keeps the result, kernel or error; every later call returns it,
// and concurrent first calls all return the one that was kept. The
// kernel is shared by every backend that dispatches the binary, so it
// must never be edited: code that rewrites IR calls Decode instead.
func (b *Binary) Kernel() (*kernel.Kernel, error) {
	d := b.decoded.Load()
	if d == nil {
		d = &decoded{}
		d.k, d.err = Decode(b)
		if !b.decoded.CompareAndSwap(nil, d) {
			d = b.decoded.Load()
		}
	}
	return d.k, d.err
}

// Compile lowers a validated kernel to a device binary in the kernel's
// dialect encoding.
//
// Layout (little-endian):
//
//	u32 magic, u8 version, u8 dialect, u8 simd, u8 numArgs, u8 numSurfaces
//	u16 nameLen, name bytes
//	u32 numBlocks
//	per block: u32 numInstrs, instructions (16 bytes each, in the
//	dialect's field layout)
func Compile(k *kernel.Kernel) (*Binary, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	if len(k.Name) > 0xFFFF {
		return nil, fmt.Errorf("jit: kernel name too long (%d bytes)", len(k.Name))
	}
	return compileUnchecked(k)
}

// Decode reconstructs the kernel IR from a device binary, as a fresh
// kernel the caller may edit (Binary.Kernel returns the shared one). The
// result is validated only structurally at the instruction level;
// callers that require full IR invariants should run Kernel.Validate.
// (Instrumented binaries intentionally relax some source-level
// invariants, e.g. they use the reserved scratch registers.)
func Decode(bin *Binary) (*kernel.Kernel, error) {
	code := bin.Code
	if len(code) < 15 {
		return nil, fmt.Errorf("jit: binary too short (%d bytes): %w", len(code), faults.ErrBadBinary)
	}
	if got := binary.LittleEndian.Uint32(code); got != Magic {
		return nil, fmt.Errorf("jit: bad magic %#x: %w", got, faults.ErrBadBinary)
	}
	if code[4] != Version {
		return nil, fmt.Errorf("jit: unsupported binary version %d: %w", code[4], faults.ErrBadBinary)
	}
	k := &kernel.Kernel{
		Dialect:     isa.Dialect(code[5]),
		SIMD:        isa.Width(code[6]),
		NumArgs:     int(code[7]),
		NumSurfaces: int(code[8]),
	}
	if !k.Dialect.Valid() {
		return nil, fmt.Errorf("jit: invalid dialect %d: %w", code[5], faults.ErrBadBinary)
	}
	if !k.Dialect.WidthValid(k.SIMD) {
		return nil, fmt.Errorf("jit: invalid dispatch width %d for dialect %s: %w", code[6], k.Dialect, faults.ErrBadBinary)
	}
	nameLen := int(binary.LittleEndian.Uint16(code[9:]))
	pos := 11
	if pos+nameLen+4 > len(code) {
		return nil, fmt.Errorf("jit: truncated header: %w", faults.ErrBadBinary)
	}
	k.Name = string(code[pos : pos+nameLen])
	pos += nameLen
	numBlocks := int(binary.LittleEndian.Uint32(code[pos:]))
	pos += 4
	for id := 0; id < numBlocks; id++ {
		if pos+4 > len(code) {
			return nil, fmt.Errorf("jit: truncated block header (block %d): %w", id, faults.ErrBadBinary)
		}
		n := int(binary.LittleEndian.Uint32(code[pos:]))
		pos += 4
		if pos+n*isa.InstrBytes > len(code) {
			return nil, fmt.Errorf("jit: truncated block body (block %d): %w", id, faults.ErrBadBinary)
		}
		instrs, err := k.Dialect.DecodeSlice(code[pos : pos+n*isa.InstrBytes])
		if err != nil {
			return nil, fmt.Errorf("jit: block %d: %w: %w", id, faults.ErrBadBinary, err)
		}
		pos += n * isa.InstrBytes
		k.Blocks = append(k.Blocks, &kernel.Block{ID: id, Instrs: instrs})
	}
	if pos != len(code) {
		return nil, fmt.Errorf("jit: %d trailing bytes: %w", len(code)-pos, faults.ErrBadBinary)
	}
	return k, nil
}

// Recompile re-encodes (possibly rewritten) kernel IR into a binary
// without enforcing source-level validation, for use by the binary
// rewriter whose injected code legitimately uses scratch registers.
func Recompile(k *kernel.Kernel) (*Binary, error) {
	// Structural sanity only: block IDs sequential, control-terminated.
	for i, b := range k.Blocks {
		if b.ID != i {
			return nil, fmt.Errorf("jit: block %d has ID %d", i, b.ID)
		}
		if len(b.Instrs) == 0 || !b.Terminator().Op.IsControl() {
			return nil, fmt.Errorf("jit: block %d not control-terminated", i)
		}
	}
	return compileUnchecked(k)
}

func compileUnchecked(k *kernel.Kernel) (*Binary, error) {
	// The header encodes these counts in single bytes; larger values would
	// silently truncate and decode as a different kernel shape.
	if k.NumArgs > 0xFF || k.NumSurfaces > 0xFF {
		return nil, fmt.Errorf("jit: kernel %s: %d args / %d surfaces overflow the byte-wide header fields: %w",
			k.Name, k.NumArgs, k.NumSurfaces, faults.ErrBadBinary)
	}
	size := 4 + 5 + 2 + len(k.Name) + 4
	for _, b := range k.Blocks {
		size += 4 + len(b.Instrs)*isa.InstrBytes
	}
	code := make([]byte, 0, size)
	var scratch [4]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		code = append(code, scratch[:4]...)
	}
	putU32(Magic)
	code = append(code, Version, byte(k.Dialect), byte(k.SIMD), byte(k.NumArgs), byte(k.NumSurfaces))
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(k.Name)))
	code = append(code, scratch[:2]...)
	code = append(code, k.Name...)
	putU32(uint32(len(k.Blocks)))
	var word [isa.InstrBytes]byte
	for _, b := range k.Blocks {
		putU32(uint32(len(b.Instrs)))
		for _, in := range b.Instrs {
			if err := k.Dialect.Encode(in, word[:]); err != nil {
				return nil, fmt.Errorf("jit: kernel %s block %d: %w", k.Name, b.ID, err)
			}
			code = append(code, word[:]...)
		}
	}
	return &Binary{Code: code}, nil
}

// BinaryDialect reads the dialect byte from a binary's header without
// decoding the body — how caches that key on raw binary bytes (the
// GT-Pin rewrite cache) learn which ISA surface those bytes are in.
func BinaryDialect(bin *Binary) (isa.Dialect, error) {
	if bin == nil || len(bin.Code) < 6 {
		return 0, fmt.Errorf("jit: binary too short for a header: %w", faults.ErrBadBinary)
	}
	if got := binary.LittleEndian.Uint32(bin.Code); got != Magic {
		return 0, fmt.Errorf("jit: bad magic %#x: %w", got, faults.ErrBadBinary)
	}
	d := isa.Dialect(bin.Code[5])
	if !d.Valid() {
		return 0, fmt.Errorf("jit: invalid dialect %d: %w", bin.Code[5], faults.ErrBadBinary)
	}
	return d, nil
}

// CompileProgram compiles every kernel in the program, returning binaries
// keyed by kernel name.
func CompileProgram(p *kernel.Program) (map[string]*Binary, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	out := make(map[string]*Binary, len(p.Kernels))
	for _, k := range p.Kernels {
		bin, err := Compile(k)
		if err != nil {
			return nil, err
		}
		out[k.Name] = bin
	}
	return out, nil
}
