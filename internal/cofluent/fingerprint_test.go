package cofluent

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"gtpin/internal/cl"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
)

// testRecording records driveApp over testProgram.
func testRecording(t *testing.T) *Recording {
	t.Helper()
	prog := testProgram(t)
	dev, err := device.New(device.IvyBridgeHD4000())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.NewContext(dev)
	tr := Attach(ctx)
	driveApp(t, ctx, prog)
	rec, err := Record("fingerprint-test", tr, []*kernel.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordingFingerprintStored: the first Fingerprint, digest or error,
// is what every later call returns, and it equals a fresh computation. A
// recording saved and loaded again has the same fingerprint, and a new
// recording that differs in one payload byte, its app name or its
// translate target has another.
func TestRecordingFingerprintStored(t *testing.T) {
	rec := testRecording(t)
	want, err := rec.fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		if got, err := rec.Fingerprint(); got != want || err != nil {
			t.Fatalf("call %d: Fingerprint() = %q, %v; fresh %q", call, got, err, want)
		}
	}
	if rec.fp.Load() == nil {
		t.Fatal("Fingerprint stored nothing")
	}

	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Fingerprint(); got != want || err != nil {
		t.Errorf("a saved and loaded recording fingerprints to %q, %v; want %q", got, err, want)
	}

	calls := slices.Clone(rec.Calls)
	i := slices.IndexFunc(calls, func(c cl.APICall) bool { return len(c.Payload) > 0 })
	if i < 0 {
		t.Fatal("the recording has no write payload")
	}
	calls[i].Payload = slices.Clone(calls[i].Payload)
	calls[i].Payload[0] ^= 0xFF
	genx := isa.DialectGENX
	seen := map[string]string{want: "the original"}
	for name, r := range map[string]*Recording{
		"a payload byte": {App: rec.App, Calls: calls, Programs: rec.Programs},
		"the app name":   {App: rec.App + "2", Calls: rec.Calls, Programs: rec.Programs},
		"translation":    {App: rec.App, Calls: rec.Calls, Programs: rec.Programs, Translate: &genx},
	} {
		got, err := r.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[got]; ok {
			t.Errorf("a recording with another %s fingerprints as %s", name, prev)
		}
		seen[got] = "another " + name
	}

	// A kernel with no encoding has no fingerprint, so neither has a
	// recording that holds it; the error is kept too.
	bad := testProgram(t)
	bad.Kernels[0].Blocks[0].Instrs[0].Width = 3
	r := &Recording{App: rec.App, Calls: rec.Calls, Programs: []*kernel.Program{bad}}
	for call := 0; call < 2; call++ {
		if _, err := r.Fingerprint(); err == nil {
			t.Fatalf("call %d: a recording with an unencodable kernel fingerprinted", call)
		}
	}
}

// TestRecordingFingerprintConcurrentFirstCalls: goroutines that call
// Fingerprint on a fresh recording at the same time all get the fresh
// digest, and the race detector sees no conflicting access.
func TestRecordingFingerprintConcurrentFirstCalls(t *testing.T) {
	rec := testRecording(t)
	want, err := rec.fingerprint()
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
			got[i], _ = rec.Fingerprint()
		}()
	}
	close(start)
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d got %q, want %q", i, fp, want)
		}
	}
}
