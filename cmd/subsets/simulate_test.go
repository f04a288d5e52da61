package main

import (
	"errors"
	"testing"

	"gtpin/internal/faults"
	"gtpin/internal/isa"
	"gtpin/internal/workloads"
)

// TestSimulateRefusesTranslate: detsim compiles the recorded IR and has
// no binary-translation stage, so -simulate with -translate is refused
// before any profiling instead of simulating untranslated code.
func TestSimulateRefusesTranslate(t *testing.T) {
	gen := isa.DialectGEN
	for _, c := range []struct {
		unit workloads.Unit
		want error
	}{
		{workloads.Unit{}, nil},
		{workloads.Unit{Dialect: isa.DialectGENX}, nil},
		{workloads.Unit{Dialect: isa.DialectGENX, Translate: &gen}, faults.ErrBadConfig},
	} {
		err := simOptions{Mode: "snippets", Unit: c.unit}.validate()
		if !errors.Is(err, c.want) {
			t.Errorf("unit %+v: validate() = %v, want %v", c.unit, err, c.want)
		}
	}
}
