package system

import (
	"testing"

	"repro/internal/config"
)

func BenchmarkProfileEMeshPureRadix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Sized(256, 4).WithNetwork(config.EMeshPure)
		if _, err := RunBenchmark(cfg, "radix", 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
