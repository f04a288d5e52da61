package jit

import (
	"errors"
	"sync"
	"testing"

	"gtpin/internal/faults"
	"gtpin/internal/kernel"
)

// TestStoredKernel: the first Kernel call decodes the binary and keeps
// the kernel; every later call returns that same kernel, which matches
// a fresh Decode, while Decode itself always returns a private copy.
func TestStoredKernel(t *testing.T) {
	bin, err := Compile(sampleKernel(t, "stored"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := bin.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if bin.decoded.Load() == nil {
		t.Fatal("Kernel stored nothing")
	}
	for call := 2; call <= 3; call++ {
		if got, err := bin.Kernel(); got != k || err != nil {
			t.Fatalf("call %d: Kernel() = %p, %v; first call %p", call, got, err, k)
		}
	}
	fresh, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == k {
		t.Fatal("Decode returned the stored kernel")
	}
	want, err := fresh.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.Fingerprint(); got != want || err != nil {
		t.Fatalf("stored kernel fingerprints %q, %v; a fresh decode %q", got, err, want)
	}
}

// TestStoredKernelAllocs: once stored, a kernel costs a load.
func TestStoredKernelAllocs(t *testing.T) {
	bin, err := Compile(sampleKernel(t, "allocs"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bin.Kernel(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = bin.Kernel() }); n != 0 {
		t.Fatalf("a stored Kernel allocates %.1f times per call", n)
	}
}

// TestStoredKernelConcurrentFirstCalls: goroutines that call Kernel on
// a fresh binary at the same time all get the one kernel that was kept,
// and the race detector sees no conflicting access.
func TestStoredKernelConcurrentFirstCalls(t *testing.T) {
	bin, err := Compile(sampleKernel(t, "concurrent"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]*kernel.Kernel, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			k, err := bin.Kernel()
			if err != nil {
				t.Error(err)
			}
			got[i] = k
		}()
	}
	close(start)
	wg.Wait()
	k, _ := bin.Kernel() // the concurrent calls already reported any error
	for i, g := range got {
		if g != k {
			t.Fatalf("goroutine %d got kernel %p, the binary keeps %p", i, g, k)
		}
	}
}

// TestStoredKernelBadBinary: a malformed binary keeps its decode error,
// classified as faults.ErrBadBinary, and never yields a kernel.
func TestStoredKernelBadBinary(t *testing.T) {
	good, err := Compile(sampleKernel(t, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	for name, code := range map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{0}, good.Code[1:]...),
		"truncated": good.Code[:len(good.Code)-1],
	} {
		bin := &Binary{Code: code}
		k, err := bin.Kernel()
		if k != nil || !errors.Is(err, faults.ErrBadBinary) {
			t.Fatalf("%s: Kernel() = %p, %v; want no kernel and ErrBadBinary", name, k, err)
		}
		if k2, err2 := bin.Kernel(); k2 != nil || err2 != err {
			t.Fatalf("%s: second call = %p, %v; first call returned %v", name, k2, err2, err)
		}
	}
}
