package cl

import (
	"bytes"
	"fmt"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/device"
	"gtpin/internal/engine"
	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// bumpProgram holds bump1, bump2 and bump3: bumpS adds argument 0 to
// word gid of each of its S surfaces. The read-modify-write makes a
// retry apply twice unless every surface was restored first.
func bumpProgram(t *testing.T) *kernel.Program {
	t.Helper()
	var ks []*kernel.Kernel
	for n := 1; n <= 3; n++ {
		a := asm.NewKernel(fmt.Sprintf("bump%d", n), isa.W16)
		v := a.Arg(0)
		addr, x := a.Temp(), a.Temp()
		a.Shl(addr, asm.R(kernel.GIDReg), asm.I(2))
		for i := 0; i < n; i++ {
			s := a.Surface(i)
			a.Load(x, addr, s, 4)
			a.Add(x, asm.R(x), asm.R(v))
			a.Store(s, addr, x, 4)
		}
		a.End()
		k, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	p, err := asm.Program("bumper", ks...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotReuseRestoresExactly: the queue reuses one snapshot
// storage across dispatches and attempts, so a retry must restore every
// surface exactly whatever the storage held before: more pages or fewer,
// and whether or not the faulted attempt allocated a page the snapshot
// did not hold. Each seed runs the same dispatches on a device that
// corrupts half its attempts and on a clean one, and the surfaces must
// end equal; across the seeds, a retried dispatch must follow storage
// that held more pages and storage that held fewer, and must bind a
// surface whose page its faulted attempt allocated.
func TestSnapshotReuseRestoresExactly(t *testing.T) {
	// Surfaces 0-3 start filled, one page each; 4 and 5 start zero, so
	// no page of theirs exists until a dispatch writes one.
	sizes := []int{64, 4096, 1000, 200, 2*4096 + 8, 3 * 4096}
	filled := 4
	steps := []struct {
		kernel string
		bufs   []int
	}{
		{"bump3", []int{0, 1, 2}},
		{"bump1", []int{4}},       // fewer pages than the storage held, and a new page
		{"bump3", []int{2, 4, 1}}, // more
		{"bump2", []int{5, 3}},    // a new page
		{"bump2", []int{1, 3}},
		{"bump2", []int{3, 0}},
		{"bump3", []int{1, 2, 5}},
		{"bump1", []int{1}},
		{"bump1", []int{0}},
	}
	run := func(t *testing.T, inj *faults.Injector) ([][]byte, []int) {
		dev, err := device.New(device.IvyBridgeHD4000())
		if err != nil {
			t.Fatal(err)
		}
		dev.SetFaultInjector(inj)
		ctx := NewContext(dev)
		ctx.SetResilience(Resilience{MaxRetries: 32})
		q := ctx.CreateQueue()
		bufs := make([]*Buffer, len(sizes))
		for i, n := range sizes {
			b, err := ctx.CreateBuffer(n)
			check(t, err)
			if i < filled {
				data := make([]byte, b.Size())
				for j := range data {
					data[j] = byte(i*37 + j*11 + 1)
				}
				_, err := b.Device().WriteAt(data, 0)
				check(t, err)
			}
			bufs[i] = b
		}
		p := ctx.CreateProgram(bumpProgram(t))
		check(t, p.Build())
		var events []*Event
		for si, st := range steps {
			k, err := p.CreateKernel(st.kernel)
			check(t, err)
			check(t, k.SetArg(0, uint32(si+1)))
			for s, b := range st.bufs {
				check(t, k.SetBuffer(s, bufs[b]))
			}
			ev, err := q.EnqueueNDRangeKernelWithEvent(k, 16)
			check(t, err)
			events = append(events, ev)
		}
		check(t, q.Finish())
		out := make([][]byte, len(bufs))
		attempts := make([]int, len(events))
		for i, b := range bufs {
			out[i] = make([]byte, b.Size())
			_, err := b.Device().ReadAt(out[i], 0)
			check(t, err)
		}
		for i, ev := range events {
			st, ok := ev.Stats()
			if !ok {
				t.Fatalf("step %d did not complete", i)
			}
			attempts[i] = st.Attempts
		}
		return out, attempts
	}

	// pages[i] is how many pages step i's snapshot holds: one for each
	// bound surface that was filled or written by an earlier step.
	pages := make([]int, len(steps))
	written := make([]bool, len(sizes))
	for i := range written {
		written[i] = i < filled
	}
	newPage := make([]bool, len(steps))
	for i, st := range steps {
		for _, b := range st.bufs {
			if written[b] {
				pages[i]++
			} else {
				newPage[i] = true
			}
		}
		for _, b := range st.bufs {
			written[b] = true
		}
	}

	want, _ := run(t, nil)
	covered := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		inj, err := faults.NewInjector(seed, faults.Rates{Corrupt: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got, attempts := run(t, inj)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("seed %d: buffer %d differs from the fault-free run", seed, i)
			}
		}
		for i := 1; i < len(steps); i++ {
			if attempts[i] < 2 {
				continue
			}
			switch {
			case pages[i-1] > pages[i]:
				covered["more pages"] = true
			case pages[i-1] < pages[i]:
				covered["fewer pages"] = true
			}
			if newPage[i] {
				covered["a page allocated by the faulted attempt"] = true
			}
		}
	}
	for _, c := range []string{"more pages", "fewer pages", "a page allocated by the faulted attempt"} {
		if !covered[c] {
			t.Errorf("no retried dispatch followed storage that held %s", c)
		}
	}
}

// TestSnapshotStorageReused: a snapshot of no more bytes than an earlier
// one copies into the same storage, it holds only the pages a surface
// has allocated, and restore puts exactly those pages back, dropping a
// page allocated since.
func TestSnapshotStorageReused(t *testing.T) {
	q := &Queue{}
	big, err := device.NewBuffer(3 * engine.PageSize)
	check(t, err)
	for _, page := range []int{0, 2} {
		check(t, big.WriteU32(page*engine.PageSize+8, 0xdeadbeef))
	}
	q.snapshot([]*device.Buffer{big, big})
	if len(q.snapPages) != 4 || len(q.snapData) != 4*engine.PageSize {
		t.Fatalf("snapshot holds %d pages in %d bytes, want the 4 allocated pages in %d", len(q.snapPages), len(q.snapData), 4*engine.PageSize)
	}
	storage := &q.snapData[0]

	small, err := device.NewBuffer(100)
	check(t, err)
	data := make([]byte, small.Size())
	for i := range data {
		data[i] = byte(i + 1)
	}
	_, err = small.WriteAt(data, 0)
	check(t, err)
	q.snapshot([]*device.Buffer{small, big})
	if &q.snapData[0] != storage {
		t.Error("a smaller snapshot got new storage")
	}
	if len(q.snapPages) != 3 || !bytes.Equal(q.snapData[:len(data)], data) {
		t.Fatalf("snapshot holds %d pages; want 3, the first the small surface's bytes", len(q.snapPages))
	}

	wantBig := make([]byte, big.Size())
	_, err = big.ReadAt(wantBig, 0)
	check(t, err)
	_, err = small.WriteAt([]byte{9, 9, 9}, 50)
	check(t, err)
	check(t, big.WriteU32(engine.PageSize+4, 7)) // allocates page 1
	check(t, big.WriteU32(8, 0))
	q.restore([]*device.Buffer{small, big})
	got := make([]byte, small.Size())
	_, err = small.ReadAt(got, 0)
	check(t, err)
	if !bytes.Equal(got, data) {
		t.Error("restore did not put the small surface back")
	}
	gotBig := make([]byte, big.Size())
	_, err = big.ReadAt(gotBig, 0)
	check(t, err)
	if !bytes.Equal(gotBig, wantBig) {
		t.Error("restore did not put the large surface back")
	}
	var offs []int
	big.Pages(func(off int, _ []byte) { offs = append(offs, off) })
	if fmt.Sprint(offs) != fmt.Sprint([]int{0, 2 * engine.PageSize}) {
		t.Errorf("after restore the large surface holds pages at %v, want the snapshotted 0 and %d", offs, 2*engine.PageSize)
	}
}
