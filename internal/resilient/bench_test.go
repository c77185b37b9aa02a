package resilient_test

import (
	"testing"

	"repro/internal/resilient"
)

// BenchmarkCtxErr measures the per-iteration cancellation poll an engine
// loop executes on a live context.
func BenchmarkCtxErr(b *testing.B) {
	ctx, cancel := resilient.WithCancel()
	defer cancel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ctx.Err() != nil {
			b.Fatal("live context reported done")
		}
	}
}

// BenchmarkSupervisorNoRetryOverhead measures what wrapping an op in a
// supervised Run costs when the op succeeds first try — the common case a
// CLI pays for `-retries 0`... compared against calling the op directly.
func BenchmarkSupervisorNoRetryOverhead(b *testing.B) {
	sup := &resilient.Supervisor{Policy: resilient.Policy{MaxAttempts: 1}}
	ctx := resilient.Background()
	op := func(*resilient.Attempt) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sup.Run(ctx, "bench", op); err != nil {
			b.Fatal(err)
		}
	}
}
