package kernelfuzz

import (
	"testing"

	"gpushield/internal/kernel"
)

// BenchmarkKernelCodec is the oracle's codec leg on fuzz-sized kernels: one
// op encodes a kernel and decodes it back, cycling through the kernels of
// the well-formed cases of one 28-case batch at seed 1 (the repository
// benchmark's fuzz batch size).
func BenchmarkKernelCodec(b *testing.B) {
	var ks []*kernel.Kernel
	for i := 0; i < 28; i++ {
		c := Generate(1, i)
		if c.Malformed != nil {
			continue // Validate rejects these by design
		}
		kernels, err := BuildKernels(c)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, kernels...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := ks[i%len(ks)].EncodeJSON()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kernel.DecodeJSON(enc); err != nil {
			b.Fatal(err)
		}
	}
}
