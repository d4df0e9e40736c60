package serve

import (
	"context"
	"testing"
	"time"
)

// BenchmarkCoreServeSubmit pushes single requests through the full serving
// pipeline (batcher → worker → program executor → pooled ring buffers).
// allocs/op is the column of interest: the ring's Poly pool keeps the
// steady-state allocation rate flat as request volume grows.
func BenchmarkCoreServeSubmit(b *testing.B) {
	reg := testEnv(b)
	core := NewCore(reg, Config{
		MaxBatch:  1,
		BatchWait: time.Microsecond,
		Workers:   2,
	})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(b, 1)
	// Warm the converter and plaintext caches.
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
			b.Fatal(err)
		}
	}
}
