package detsim_test

// Benchmarks for the interpreter hot paths: the cycle-level detailed
// model and the functional fast-forward, both over the same recording.
// The flattened five-class opcode dispatch and the preallocated
// operand scratch land here; regressions show up as dropped MI/s.

import (
	"testing"

	"gtpin/internal/detsim"
)

func benchSim(b *testing.B, ranges func(n int) []detsim.Range) {
	rec, n, _ := record(b, 1234, 8)
	sim, err := detsim.New(detsim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.Run(rec, ranges(n))
		if err != nil {
			b.Fatal(err)
		}
		instrs = rep.DetailedInstrs
	}
	b.StopTimer()
	if instrs > 0 {
		mips := float64(instrs) * float64(b.N) / b.Elapsed().Seconds() / 1e6
		b.ReportMetric(mips, "MI/s")
	}
}

// BenchmarkDetailedInterp simulates every invocation at cycle level.
func BenchmarkDetailedInterp(b *testing.B) {
	benchSim(b, func(n int) []detsim.Range { return []detsim.Range{{From: 0, To: n}} })
}

// BenchmarkFunctionalFastForward executes the same recording on the
// functional path only — the fast-forward interpreter.
func BenchmarkFunctionalFastForward(b *testing.B) {
	benchSim(b, func(int) []detsim.Range { return nil })
}
