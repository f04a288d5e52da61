package engine

import (
	"fmt"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// sendKey maps a (surface, byte address) pair into the flat address
// space the cache hierarchy and warmup hooks observe.
func sendKey(surface uint8, addr uint32) uint64 {
	return uint64(surface)<<32 | uint64(addr)
}

// execSendMsg performs a send's memory message under functional
// semantics. Only channels below active (the dispatch mask) and enabled
// by predication participate in gather/scatter/atomic messages; block
// messages move the full SIMD width addressed by channel 0.
func (e *Env) execSendMsg(msg *isa.MsgDesc, dst, addrReg, dataReg isa.Reg, pred isa.PredMode, surfs []*Buffer, width, active int, groupCycles uint64, st *Stats) error {
	st.Sends++
	if e.SendFault != nil && e.SendFault(st.Sends) {
		return fmt.Errorf("send %s (transaction %d): %w", msg.Kind, st.Sends, faults.ErrSendFault)
	}
	c := &e.Core
	switch msg.Kind {
	case isa.MsgEOT:
		return nil
	case isa.MsgTimer:
		if e.Timer != nil {
			c.GRF[dst][0] = e.Timer(groupCycles)
		}
		return nil
	}

	if int(msg.Surface) >= len(surfs) {
		return fmt.Errorf("send %s: surface %d not bound: %w", msg.Kind, msg.Surface, faults.ErrInvalidDispatch)
	}
	surf := surfs[msg.Surface]
	elem := int(msg.ElemBytes)
	addrs := &c.GRF[addrReg]

	if pred == isa.PredNoneMode && e.Touch == nil {
		// Every active lane runs and nothing observes the accesses: index
		// the surface directly and count the bytes once per message. An
		// element size the lane loops reject falls through to the
		// per-lane path below.
		a, n := addrs[:active], uint64(elem*active)
		switch msg.Kind {
		case isa.MsgLoad:
			if surf.loadLanes(c.GRF[dst][:], a, elem) {
				st.BytesRead += n
				return nil
			}
		case isa.MsgStore:
			if surf.storeLanes(a, c.GRF[dataReg][:], elem) {
				st.BytesWritten += n
				return nil
			}
		case isa.MsgAtomicAdd:
			if surf.addLanes(c.GRF[dst][:], a, c.GRF[dataReg][:], elem) {
				st.BytesRead += n
				st.BytesWritten += n
				return nil
			}
		}
	}

	switch msg.Kind {
	case isa.MsgLoad:
		d := &c.GRF[dst]
		for i := 0; i < active; i++ {
			if c.laneOn(pred, i) {
				d[i] = uint32(surf.LoadElem(addrs[i], elem))
				st.BytesRead += uint64(elem)
				if e.Touch != nil {
					e.Touch(sendKey(msg.Surface, addrs[i]), false)
				}
			}
		}
	case isa.MsgStore:
		data := &c.GRF[dataReg]
		for i := 0; i < active; i++ {
			if c.laneOn(pred, i) {
				surf.StoreElem(addrs[i], elem, uint64(data[i]))
				st.BytesWritten += uint64(elem)
				if e.Touch != nil {
					e.Touch(sendKey(msg.Surface, addrs[i]), true)
				}
			}
		}
	case isa.MsgLoadBlock:
		d := &c.GRF[dst]
		base := addrs[0]
		for i := 0; i < width; i++ {
			d[i] = uint32(surf.LoadElem(base+uint32(i*elem), elem))
			if e.Touch != nil {
				e.Touch(sendKey(msg.Surface, base+uint32(i*elem)), false)
			}
		}
		st.BytesRead += uint64(elem * width)
	case isa.MsgStoreBlock:
		data := &c.GRF[dataReg]
		base := addrs[0]
		for i := 0; i < width; i++ {
			surf.StoreElem(base+uint32(i*elem), elem, uint64(data[i]))
			if e.Touch != nil {
				e.Touch(sendKey(msg.Surface, base+uint32(i*elem)), true)
			}
		}
		st.BytesWritten += uint64(elem * width)
	case isa.MsgAtomicAdd:
		data := &c.GRF[dataReg]
		d := &c.GRF[dst]
		for i := 0; i < active; i++ {
			if c.laneOn(pred, i) {
				old := surf.AtomicAdd(addrs[i], elem, uint64(data[i]))
				d[i] = uint32(old)
				st.BytesRead += uint64(elem)
				st.BytesWritten += uint64(elem)
				if e.Touch != nil {
					e.Touch(sendKey(msg.Surface, addrs[i]), true)
				}
			}
		}
	default:
		return fmt.Errorf("send: unsupported message kind %s", msg.Kind)
	}
	return nil
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
