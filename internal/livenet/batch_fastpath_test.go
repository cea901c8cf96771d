package livenet

import "testing"

// TestForwardHopAllocsBatched pins the full-batch fast-path contract: a
// steady-state batch of forwarded hops — batched decode and decision,
// per-frame byte surgery, one ring flush — allocates nothing. The bound
// is per batch, so even one allocation anywhere in the 64-frame hot
// path fails it.
func TestForwardHopAllocsBatched(t *testing.T) {
	r, p, sc := hopDriver(DefaultBatchSize)
	tmpl := hopTemplateBytes()
	hdrs, drain := newHopBatch(DefaultBatchSize)
	// Warm the pool and the scratch slices so steady state is measured.
	for i := 0; i < 8; i++ {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain, nil)
	})
	if allocs != 0 {
		t.Fatalf("one %d-frame batch allocates %.2f times, want 0", DefaultBatchSize, allocs)
	}
	if s := r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
		t.Fatalf("unexpected counters after bench loop: %v", s)
	}
}

// BenchmarkForwardHopBatched measures the router fast path in isolation
// when the per-hop kernel is amortized across 64-frame batches. Compare
// against BenchmarkForwardHop, the one-frame batch.
func BenchmarkForwardHopBatched(b *testing.B) {
	benchmarkForwardHop(b, DefaultBatchSize, nil)
}
