package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestTaxonomyClassification(t *testing.T) {
	transients := []*Sentinel{ErrSendFault, ErrJITTransient, ErrCorruptResult}
	permanents := []*Sentinel{
		ErrKernelHang, ErrWatchdogTimeout, ErrEventNotComplete,
		ErrBadBinary, ErrInvalidDispatch, ErrAlreadyAttached, ErrResourceExhausted,
		ErrSurfaceOverflow, ErrBadConfig,
	}
	for _, s := range transients {
		if s.Class() != Transient {
			t.Errorf("%v must be transient", s)
		}
		if !IsTransient(fmt.Errorf("layer: op: %w", s)) {
			t.Errorf("wrapped %v must classify transient", s)
		}
	}
	for _, s := range permanents {
		if s.Class() != Permanent {
			t.Errorf("%v must be permanent", s)
		}
		if IsTransient(fmt.Errorf("layer: op: %w", s)) {
			t.Errorf("wrapped %v must not classify transient", s)
		}
	}
}

func TestErrorsIsThroughDeepWrapping(t *testing.T) {
	err := fmt.Errorf("cl: drain: %w",
		fmt.Errorf("device: kernel k: %w: budget exhausted: %w", ErrWatchdogTimeout, ErrKernelHang))
	if !errors.Is(err, ErrWatchdogTimeout) {
		t.Error("errors.Is must find ErrWatchdogTimeout through two wraps")
	}
	if !errors.Is(err, ErrKernelHang) {
		t.Error("errors.Is must find ErrKernelHang in a multi-%w chain")
	}
	if errors.Is(err, ErrSendFault) {
		t.Error("errors.Is must not match a different sentinel")
	}
	var s *Sentinel
	if !errors.As(err, &s) {
		t.Fatal("errors.As must extract the sentinel")
	}
}

func TestClassOfDefaultsPermanent(t *testing.T) {
	if ClassOf(errors.New("opaque")) != Permanent {
		t.Error("unclassified errors must default permanent")
	}
	if ClassOf(nil) != Permanent {
		t.Error("nil defaults permanent (and IsTransient(nil) is false)")
	}
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
}

func TestContextCancellationNeverTransient(t *testing.T) {
	// Even wrapped under a transient sentinel, cancellation must not be
	// retried.
	err := fmt.Errorf("%w: interrupted: %w", ErrSendFault, context.Canceled)
	if IsTransient(err) {
		t.Error("context.Canceled must suppress retry classification")
	}
	if IsTransient(fmt.Errorf("op: %w", context.DeadlineExceeded)) {
		t.Error("context.DeadlineExceeded is never transient")
	}
}

// transientErr is classified without wrapping a sentinel.
type transientErr struct{}

func (transientErr) Error() string { return "transient, no kind" }
func (transientErr) Class() Class  { return Transient }

func TestKind(t *testing.T) {
	if k := Kind(fmt.Errorf("x: %w", ErrCorruptResult)); k != "corrupted result" {
		t.Errorf("Kind = %q", k)
	}
	if k := Kind(errors.New("plain")); k != "" {
		t.Errorf("Kind of unclassified = %q, want empty", k)
	}
	// Label falls back from the kind to the class.
	for err, want := range map[error]string{
		fmt.Errorf("x: %w", ErrCorruptResult): "corrupted result",
		fmt.Errorf("x: %w", transientErr{}):   "transient",
		errors.New("plain"):                   "permanent",
	} {
		if got := Label(err); got != want {
			t.Errorf("Label(%v) = %q, want %q", err, got, want)
		}
	}
}

func TestNewSentinelMintsDistinctKinds(t *testing.T) {
	a := NewSentinel("custom", Transient)
	b := NewSentinel("custom", Transient)
	if errors.Is(fmt.Errorf("%w", a), b) {
		t.Error("sentinels compare by identity, not name")
	}
	if !IsTransient(fmt.Errorf("%w", a)) {
		t.Error("minted transient sentinel must classify transient")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() ([]bool, Stats) {
		inj, err := NewInjector(42, Uniform(0.3))
		if err != nil {
			t.Fatal(err)
		}
		var fired []bool
		for i := 0; i < 200; i++ {
			v := inj.BeginInvocation("k", 10)
			fired = append(fired, v.Hang(), v.CorruptResult())
			for s := uint64(1); s <= 10; s++ {
				fired = append(fired, v.SendFault(s))
			}
			fired = append(fired, inj.JITFault("k"))
		}
		return fired, inj.Stats()
	}
	a, as := run()
	b, bs := run()
	if as != bs {
		t.Fatalf("stats diverged: %+v vs %+v", as, bs)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged between identical runs", i)
		}
	}
	if as.Total() == 0 {
		t.Fatal("rate 0.3 over 200 invocations must fire some faults")
	}
}

func TestInjectorSeedsDiverge(t *testing.T) {
	plan := func(seed int64) string {
		inj, _ := NewInjector(seed, Uniform(0.5))
		out := ""
		for i := 0; i < 64; i++ {
			v := inj.BeginInvocation("k", 4)
			if v.Hang() {
				out += "H"
			} else {
				out += "."
			}
		}
		return out
	}
	if plan(1) == plan(2) {
		t.Error("different seeds must draw different fault sequences")
	}
	if DeriveSeed(1, "app/native") == DeriveSeed(1, "app/replay") {
		t.Error("derived seeds must differ per phase")
	}
}

func TestInjectorRates(t *testing.T) {
	// Zero rate never fires; rate 1 always fires; an intermediate rate
	// lands loosely in between over many draws.
	zero, _ := NewInjector(7, Rates{})
	if zero.BeginInvocation("k", 4) != nil {
		t.Error("zero rates must fire nothing")
	}
	always, _ := NewInjector(7, Rates{Hang: 1})
	for i := 0; i < 10; i++ {
		if !always.BeginInvocation("k", 4).Hang() {
			t.Fatal("rate 1 must hang every attempt")
		}
	}
	mid, _ := NewInjector(7, Rates{Corrupt: 0.2})
	n := 0
	for i := 0; i < 2000; i++ {
		if mid.BeginInvocation("k", 4).CorruptResult() {
			n++
		}
	}
	if n < 250 || n > 550 {
		t.Errorf("rate 0.2 fired %d/2000 times; hash stream badly biased", n)
	}
}

func TestInjectorRetriesRedraw(t *testing.T) {
	// With an intermediate rate, a faulting attempt must eventually be
	// followed by a clean draw for the same kernel — the property retry
	// depends on.
	inj, _ := NewInjector(3, Rates{Hang: 0.5})
	sawFault, sawClean := false, false
	for i := 0; i < 64 && !(sawFault && sawClean); i++ {
		if inj.BeginInvocation("k", 0).Hang() {
			sawFault = true
		} else {
			sawClean = true
		}
	}
	if !sawFault || !sawClean {
		t.Fatal("successive draws for one kernel must vary at rate 0.5")
	}
}

func TestInjectorRejectsBadRates(t *testing.T) {
	for _, r := range []Rates{{Hang: -0.1}, {Send: 1.5}, {JIT: 2}} {
		if _, err := NewInjector(1, r); err == nil {
			t.Errorf("rates %+v must be rejected", r)
		}
	}
}

func TestNilInjectorAndInvocationAreInert(t *testing.T) {
	var inj *Injector
	if inj.BeginInvocation("k", 4) != nil {
		t.Error("nil injector must return a nil invocation")
	}
	if inj.JITFault("k") {
		t.Error("nil injector never faults")
	}
	if inj.Stats() != (Stats{}) {
		t.Error("nil injector stats must be zero")
	}
	var v *Invocation
	if v.Hang() || v.SendFault(1) || v.CorruptResult() {
		t.Error("nil invocation must fire nothing")
	}
}

func TestSendFaultAtMostOncePerAttempt(t *testing.T) {
	inj, _ := NewInjector(11, Rates{Send: 1})
	v := inj.BeginInvocation("k", 8)
	fires := 0
	for s := uint64(1); s <= 8; s++ {
		if v.SendFault(s) {
			fires++
		}
	}
	if fires != 1 {
		t.Errorf("send rate 1 fired %d transactions in one attempt, want exactly 1", fires)
	}
}
