package kernel

import (
	"sync"
	"testing"

	"gtpin/internal/isa"
)

// unencodable is a kernel with an instruction of no legal width, which
// the encoding refuses, so it has no fingerprint.
func unencodable() *Kernel {
	k := validKernel()
	k.Blocks[0].Instrs[0].Width = 3
	return k
}

// TestFingerprintStored: the first call's result, digest or error, is
// what every later call returns, and it equals an uncached computation.
func TestFingerprintStored(t *testing.T) {
	for _, k := range []*Kernel{validKernel(), unencodable()} {
		want, wantErr := k.fingerprint()
		for call := 0; call < 3; call++ {
			got, err := k.Fingerprint()
			if got != want || (err == nil) != (wantErr == nil) {
				t.Fatalf("call %d: Fingerprint() = %q, %v; uncached %q, %v", call, got, err, want, wantErr)
			}
		}
		if k.fp.Load() == nil {
			t.Fatal("Fingerprint stored nothing")
		}
	}
	if _, err := unencodable().Fingerprint(); err == nil {
		t.Fatal("unencodable kernel fingerprinted")
	}
}

// TestFingerprintAllocs: once stored, a fingerprint costs a load.
func TestFingerprintAllocs(t *testing.T) {
	k := validKernel()
	if _, err := k.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = k.Fingerprint() }); n != 0 {
		t.Fatalf("a stored Fingerprint allocates %.1f times per call", n)
	}
}

// TestFingerprintConcurrentFirstCalls: goroutines that call Fingerprint
// on a fresh kernel at the same time all get the uncached digest, and
// the race detector sees no conflicting access.
func TestFingerprintConcurrentFirstCalls(t *testing.T) {
	for _, d := range []isa.Dialect{isa.DialectGEN, isa.DialectGENX} {
		k := validKernel()
		k.Dialect = d
		want, err := k.fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		got := make([]string, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], _ = k.Fingerprint()
			}()
		}
		close(start)
		wg.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("%v: goroutine %d got %q, want %q", d, i, fp, want)
			}
		}
	}
}
