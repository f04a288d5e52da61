package detsim_test

import (
	"strings"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/detsim"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// corrupt builds recordings with specific defects and asserts the
// simulator rejects them with a descriptive error rather than panicking.
func TestRunRejectsCorruptRecordings(t *testing.T) {
	rec, _, _ := record(t, 91, 4)

	cases := []struct {
		name   string
		mutate func(r *cofluent.Recording)
		want   string
	}{
		{
			name: "missing program IR",
			mutate: func(r *cofluent.Recording) {
				r.Programs = nil
			},
			want: "not in recording",
		},
		{
			name: "enqueue of unknown kernel",
			mutate: func(r *cofluent.Recording) {
				for i := range r.Calls {
					if r.Calls[i].Name == cl.CallEnqueueNDRangeKernel {
						r.Calls[i].KID = 999
						return
					}
				}
			},
			want: "unknown kernel",
		},
		{
			name: "write to unknown buffer",
			mutate: func(r *cofluent.Recording) {
				for i := range r.Calls {
					if r.Calls[i].Name == cl.CallEnqueueWriteBuffer {
						r.Calls[i].Buffer = 999
						return
					}
				}
			},
			want: "unknown buffer",
		},
		{
			name: "arg on unknown kernel",
			mutate: func(r *cofluent.Recording) {
				for i := range r.Calls {
					if r.Calls[i].Name == cl.CallSetKernelArg {
						r.Calls[i].KID = 999
						return
					}
				}
			},
			want: "unknown kernel",
		},
		{
			name: "translated binaries",
			mutate: func(r *cofluent.Recording) {
				gen := isa.DialectGEN
				r.Translate = &gen
			},
			want: "cannot reproduce",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cp := &cofluent.Recording{
				App:      rec.App,
				Calls:    append([]cl.APICall(nil), rec.Calls...),
				Programs: append([]*kernel.Program(nil), rec.Programs...),
			}
			c.mutate(cp)
			sim, err := detsim.New(detsim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(cp, nil)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
