package obs

import "testing"

// The nil-receiver fast path is the package's core contract: instrumented
// hot paths must cost nothing measurable when tracing is off, and a metric
// update must stay a few atomic ops. These benchmarks pin those paths.

func BenchmarkNilSpanOps(b *testing.B) {
	var s *Span
	for i := 0; i < b.N; i++ {
		c := s.Child("x")
		c.Add("n", 1)
		c.End()
	}
}

func BenchmarkSpanAdd(b *testing.B) {
	s := StartSpan("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add("n", 1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := &Counter{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewHistogram(DefaultPrecision)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}
