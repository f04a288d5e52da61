package cl

import (
	"bytes"
	"fmt"
	"testing"

	"gtpin/internal/asm"
	"gtpin/internal/device"
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
// surface exactly whatever the storage held before: more surfaces,
// fewer, or longer and shorter ones. Each seed runs the same dispatches
// on a device that corrupts half its attempts and on a clean one, and
// the surfaces must end equal; across the seeds, a retried dispatch
// must follow each of the four storage shapes.
func TestSnapshotReuseRestoresExactly(t *testing.T) {
	sizes := []int{64, 4096, 1000, 200}
	steps := []struct {
		kernel string
		bufs   []int
	}{
		{"bump3", []int{0, 1, 2}},
		{"bump1", []int{3}},       // fewer surfaces than the storage held
		{"bump3", []int{2, 3, 1}}, // more
		{"bump2", []int{0, 1}},    // a shorter slot, then a longer one
		{"bump2", []int{1, 3}},    // a longer slot
		{"bump2", []int{3, 0}},    // shorter slots
		{"bump3", []int{1, 2, 0}},
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
			for j := range b.Device().Bytes() {
				b.Device().Bytes()[j] = byte(i*37 + j*11 + 1)
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
			out[i] = bytes.Clone(b.Device().Bytes())
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
			prev, cur := steps[i-1].bufs, steps[i].bufs
			switch {
			case len(prev) > len(cur):
				covered["more surfaces"] = true
			case len(prev) < len(cur):
				covered["fewer surfaces"] = true
			}
			for s := range min(len(prev), len(cur)) {
				switch {
				case sizes[prev[s]] > sizes[cur[s]]:
					covered["a longer surface"] = true
				case sizes[prev[s]] < sizes[cur[s]]:
					covered["a shorter surface"] = true
				}
			}
		}
	}
	for _, c := range []string{"more surfaces", "fewer surfaces", "a longer surface", "a shorter surface"} {
		if !covered[c] {
			t.Errorf("no retried dispatch followed storage that held %s", c)
		}
	}
}

// TestSnapshotStorageReused: a snapshot of surfaces no larger than the
// storage's slots copies into the slots in place.
func TestSnapshotStorageReused(t *testing.T) {
	q := &Queue{}
	big, err := device.NewBuffer(4096)
	check(t, err)
	small, err := device.NewBuffer(100)
	check(t, err)
	q.snapshot([]*device.Buffer{big, big})
	slot := &q.snap[1][:1][0]
	for i := range small.Bytes() {
		small.Bytes()[i] = byte(i + 1)
	}
	snap := q.snapshot([]*device.Buffer{small, small})
	if &snap[1][:1][0] != slot {
		t.Error("a smaller surface got new snapshot storage")
	}
	if len(snap) != 2 || !bytes.Equal(snap[1], small.Bytes()) {
		t.Errorf("snapshot holds %d surfaces, slot 1 %d bytes; want 2 and the surface's 100", len(snap), len(snap[1]))
	}
}
