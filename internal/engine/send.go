package engine

import (
	"fmt"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// execSendMsg performs a send's memory message under functional
// semantics. Only channels below active (the dispatch mask) and enabled
// by predication participate in gather/scatter/atomic messages; block
// messages move the full SIMD width addressed by channel 0. An
// installed Touch hook observes the message's accesses in one call.
func (e *Env) execSendMsg(msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, groupCycles uint64, st *Stats) error {
	st.Sends++
	if e.SendFault != nil && e.SendFault(st.Sends) {
		return fmt.Errorf("send %s (transaction %d): %w", msg.Kind, st.Sends, faults.ErrSendFault)
	}
	switch msg.Kind {
	case isa.MsgEOT:
		return nil
	case isa.MsgTimer:
		if e.Timer != nil {
			e.Core.GRF[dst][0] = e.Timer(groupCycles)
		}
		return nil
	}
	n, err := e.moveLanes(msg, dst, addrReg, dataReg, pred, surfs, width, active, e.Touch != nil)
	if err != nil {
		return err
	}
	moved := uint64(n) * uint64(msg.ElemBytes)
	if msg.Kind.Reads() {
		st.BytesRead += moved
	}
	if msg.Kind.Writes() {
		st.BytesWritten += moved
	}
	if e.Touch != nil {
		e.Touch(e.keys[:n], msg.Kind.Writes())
	}
	return nil
}

// sendError reports a data send that cannot run: its binding-table
// index is unbound, or its message kind moves no data (EOT and timer
// sends are handled before it).
func sendError(msg *isa.MsgDesc, bound int) error {
	if int(msg.Surface) >= bound {
		return fmt.Errorf("send %s: surface %d not bound: %w", msg.Kind, msg.Surface, faults.ErrInvalidDispatch)
	}
	return fmt.Errorf("send: unsupported message kind %s", msg.Kind)
}

// moveLanes moves the data of a gather, scatter, atomic add or block
// message — the one body both send loops share — and returns how many
// lanes it accessed, or sendError's error before touching anything. A
// block message accesses lanes [0, width) at consecutive elements from
// channel 0's address; the others access the lanes below active that
// predication enables. An unpredicated message goes through the
// direct-indexed lane loops (loadLanes, storeLanes, addLanes); a
// predicated one, or an element size the lane loops reject (which
// panics in the per-lane accessors, as it always has), goes lane by
// lane in moveEach. Lanes run in order either way.
//
// With record set, moveLanes also stores each accessed lane's hierarchy
// key, surface<<32|addr, in e.keys[:n] in lane order. A lane's key is
// read before its access, so a destination that aliases the address
// register cannot redirect the probe.
func (e *Env) moveLanes(msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, record bool) (int, error) {
	if int(msg.Surface) >= len(surfs) || !msg.Kind.Reads() && !msg.Kind.Writes() {
		return 0, sendError(msg, len(surfs))
	}
	surf := surfs[msg.Surface]
	c := &e.Core
	elem := int(msg.ElemBytes)
	addrs := c.GRF[addrReg][:active]
	if msg.Kind == isa.MsgLoadBlock || msg.Kind == isa.MsgStoreBlock {
		base := c.GRF[addrReg][0]
		addrs = e.blockAddrs[:width]
		for i := range addrs {
			addrs[i] = base + uint32(i*elem)
		}
		pred = isa.PredNoneMode
	}
	if pred == isa.PredNoneMode {
		if record {
			sk, keys := uint64(msg.Surface)<<32, e.keys[:len(addrs)]
			for i, a := range addrs {
				keys[i] = sk | uint64(a)
			}
		}
		var ok bool
		switch msg.Kind {
		case isa.MsgLoad, isa.MsgLoadBlock:
			ok = surf.loadLanes(c.GRF[dst][:], addrs, elem)
		case isa.MsgStore, isa.MsgStoreBlock:
			ok = surf.storeLanes(addrs, c.GRF[dataReg][:], elem)
		case isa.MsgAtomicAdd:
			ok = surf.addLanes(c.GRF[dst][:], addrs, c.GRF[dataReg][:], elem)
		}
		if ok {
			return len(addrs), nil
		}
	}
	return e.moveEach(msg, dst, dataReg, pred, surf, addrs, record), nil
}

// moveEach is moveLanes' lane-by-lane path: each lane predication
// enables reads its address, records its key when asked, and moves its
// element through LoadElem, StoreElem or AtomicAdd.
func (e *Env) moveEach(msg *isa.MsgDesc, dst, dataReg isa.Reg, pred isa.PredMode, surf *Buffer, addrs []uint32, record bool) int {
	c := &e.Core
	elem := int(msg.ElemBytes)
	n := 0
	for i := range addrs {
		if !c.laneOn(pred, i) {
			continue
		}
		a := addrs[i]
		if record {
			e.keys[n] = uint64(msg.Surface)<<32 | uint64(a)
		}
		n++
		switch msg.Kind {
		case isa.MsgLoad, isa.MsgLoadBlock:
			c.GRF[dst][i] = uint32(surf.LoadElem(a, elem))
		case isa.MsgStore, isa.MsgStoreBlock:
			surf.StoreElem(a, elem, uint64(c.GRF[dataReg][i]))
		case isa.MsgAtomicAdd:
			c.GRF[dst][i] = uint32(surf.AtomicAdd(a, elem, uint64(c.GRF[dataReg][i])))
		}
	}
	return n
}

// KernelReadsTimer reports whether any instruction in the kernel is a
// timer-reading send. Backends use it to decide whether a kernel's
// memory results depend on the backend's notion of time (and therefore
// whether functional and detailed replays of it can be compared
// byte-for-byte without a shared deterministic timer hook). Lives here
// because it decodes send payloads — ISA knowledge backends must not
// reimplement.
func KernelReadsTimer(k *kernel.Kernel) bool {
	for _, b := range k.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsSend() && in.Msg.Kind == isa.MsgTimer {
				return true
			}
		}
	}
	return false
}
