package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheKeyBoundaries(t *testing.T) {
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("part boundaries must be part of the content address")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("Key must be deterministic")
	}
	if Key() == Key([]byte{}) {
		t.Fatal("zero parts and one empty part must hash differently")
	}
}

// value returns a compute function yielding v that counts its calls.
func value[V any](v V, calls *atomic.Int64) func() (V, error) {
	return func() (V, error) {
		calls.Add(1)
		return v, nil
	}
}

func TestCacheDoStatsReset(t *testing.T) {
	m := New[string]("memo_test_do")
	hits0, misses0 := m.hits.Load(), m.misses.Load()
	var calls atomic.Int64
	k := Key([]byte("bin"))
	if v, hit, err := m.Do(k, value("m", &calls)); err != nil || hit || v != "m" {
		t.Fatalf("first Do = (%q, %v, %v), want a computed miss", v, hit, err)
	}
	if v, hit, err := m.Do(k, value("other", &calls)); err != nil || !hit || v != "m" {
		t.Fatalf("second Do = (%q, %v, %v), want the stored hit", v, hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("computed %d times, want 1", calls.Load())
	}
	if st := m.Stats(); st != (Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if m.hits.Load()-hits0 != 1 || m.misses.Load()-misses0 != 1 {
		t.Fatal("process-wide counters must advance with the memo's own")
	}

	m.Reset()
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	if _, hit, _ := m.Do(k, value("m", &calls)); hit {
		t.Fatal("Reset must drop the entries")
	}
	if m.misses.Load()-misses0 != 2 {
		t.Fatal("Reset must leave the process-wide counters counting")
	}
}

func TestCacheNilMemoComputesEveryTime(t *testing.T) {
	var m *Memo[int]
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		if v, hit, err := m.Do("k", value(7, &calls)); err != nil || hit || v != 7 {
			t.Fatalf("nil Do = (%d, %v, %v)", v, hit, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("nil memo computed %d times, want 3", calls.Load())
	}
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("nil memo stats = %+v, want zero", st)
	}
}

func TestCacheErrorsAreNeverStored(t *testing.T) {
	m := New[int]("memo_test_err")
	boom := errors.New("boom")
	if _, hit, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("failing Do = (%v, %v), want the error", hit, err)
	}
	if st := m.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats after a failure = %+v, want 1 miss and no entry", st)
	}
	var calls atomic.Int64
	if v, hit, err := m.Do("k", value(3, &calls)); err != nil || hit || v != 3 || calls.Load() != 1 {
		t.Fatalf("retry after failure = (%d, %v, %v), want a fresh computation", v, hit, err)
	}
}

func TestCacheRacingCallersShareOneValue(t *testing.T) {
	m := New[*int]("memo_test_race")
	const callers = 16
	start := make(chan struct{})
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			got[c], _, _ = m.Do("k", func() (*int, error) {
				v := c
				return &v, nil
			})
		}(c)
	}
	close(start)
	wg.Wait()
	for c := range got {
		if got[c] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: racers must share the first stored value", c, got[c], got[0])
		}
	}
	if st := m.Stats(); st.Entries != 1 || st.Hits+st.Misses != callers {
		t.Fatalf("stats = %+v, want 1 entry and %d lookups", st, callers)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	m := New[byte]("memo_test_concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := byte(i % 16)
				v, _, _ := m.Do(Key([]byte{want}), func() (byte, error) { return want, nil })
				if v != want {
					panic("wrong entry under key")
				}
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.Entries != 16 || st.Hits+st.Misses != 8*200 {
		t.Fatalf("stats = %+v, want 16 entries and %d lookups", st, 8*200)
	}
}

// TestDoHitAllocs: a hit costs a locked map lookup and two counter
// increments, and allocates nothing.
func TestDoHitAllocs(t *testing.T) {
	m := New[*int]("memo_test_allocs")
	v := new(int)
	k := Key([]byte("hit"))
	f := func() (*int, error) { return v, nil }
	if _, _, err := m.Do(k, f); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = m.Do(k, f) }); n != 0 {
		t.Fatalf("a memo.Do hit allocates %.1f times per call", n)
	}
}
