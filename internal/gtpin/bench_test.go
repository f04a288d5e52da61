package gtpin

// Benchmarks for the instrumentation hot path: a cold rewrite (full
// decode/inject/re-encode) against a content-addressed cache hit.

import "testing"

// benchRewrite times one rewrite per iteration on a freshly attached
// GT-Pin instance; attachment cost is excluded from the timer so the
// two variants differ only in the rewrite path itself.
func benchRewrite(b *testing.B, opts func() Options) {
	bin := testKernelBin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := newAttached(b, opts())
		b.StartTimer()
		if _, err := g.rewrite(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewriteCold gives every instance a private cache, so each
// timed rewrite is a miss.
func BenchmarkRewriteCold(b *testing.B) {
	benchRewrite(b, func() Options { return Options{MemTrace: true, Latency: true, Cache: NewRewriteCache()} })
}

func BenchmarkRewriteCached(b *testing.B) {
	opts := Options{MemTrace: true, Latency: true, Cache: NewRewriteCache()}
	// Warm the cache so every timed rewrite is a hit.
	if _, err := newAttached(b, opts).rewrite(testKernelBin(b)); err != nil {
		b.Fatal(err)
	}
	benchRewrite(b, func() Options { return opts })
}
