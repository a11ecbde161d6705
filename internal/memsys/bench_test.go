package memsys

import (
	"testing"

	"servet/internal/topology"
)

// Microbenchmarks for the memsys hot path: a single simulated access
// (hit and miss), virtual-to-physical translation (dense single-array
// and sparse many-array spaces) and the concurrent stream interleaver.
// `make bench` records them in the BENCH_*.json perf trajectory; the
// hot path is required to stay allocation-free (asserted by the
// companion TestAccessHotPathAllocFree and visible here via
// ReportAllocs).

// benchTLBMachine returns a machine with a TLB model so the TLB probe
// path is part of the measured cost.
func benchTLBMachine() *topology.Machine {
	m := topology.Dunnington()
	m.TLBEntries = 64
	m.TLBMissCycles = 30
	return m
}

func BenchmarkAccessHit(b *testing.B) {
	in := NewInstance(topology.Dunnington(), 1)
	sp := in.NewSpace()
	a := sp.Alloc(64 * topology.KB)
	in.Access(0, sp, a.Base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Access(0, sp, a.Base)
	}
}

func BenchmarkAccessHitTLB(b *testing.B) {
	in := NewInstance(benchTLBMachine(), 1)
	sp := in.NewSpace()
	a := sp.Alloc(64 * topology.KB)
	in.Access(0, sp, a.Base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Access(0, sp, a.Base)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	// A strided cycle over an array far beyond the last-level capacity:
	// nearly every access misses every level, which is the dominant
	// regime of the mcalibrator traversals past the L3 transition.
	m := topology.Dunnington()
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	a := sp.Alloc(40 * topology.MB)
	stride := int64(1 * topology.KB)
	n := a.Bytes / stride
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Access(0, sp, a.Base+(int64(i)%n)*stride)
	}
}

func BenchmarkTranslateDense(b *testing.B) {
	// Page-granular walk of one large allocation: the dense page-table
	// regime (one contiguous region).
	m := topology.Dunnington()
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	a := sp.Alloc(16 * topology.MB)
	npages := a.Bytes / m.PageBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.translate(a.Base + (int64(i)%npages)*m.PageBytes)
	}
}

func BenchmarkTranslateSparse(b *testing.B) {
	// Round-robin translation over many single-page allocations: the
	// sparse regime with one region per page.
	m := topology.Dunnington()
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	arrs := make([]*Array, 256)
	for i := range arrs {
		arrs[i] = sp.Alloc(m.PageBytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.translate(arrs[i%len(arrs)].Base)
	}
}

// benchStreams builds per-core strided streams of the shared-cache
// benchmark's shape.
func benchStreams(in *Instance, cores int, bytes, stride int64) []Stream {
	streams := make([]Stream, cores)
	for c := 0; c < cores; c++ {
		sp := in.NewSpace()
		a := sp.Alloc(bytes)
		addrs := make([]int64, 0, bytes/stride)
		for off := int64(0); off < bytes; off += stride {
			addrs = append(addrs, a.Base+off)
		}
		streams[c] = Stream{Core: c, Space: sp, Addrs: addrs}
	}
	return streams
}

func BenchmarkRunConcurrent2Streams(b *testing.B) {
	m := topology.Dunnington()
	stats := make([]StreamStats, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewInstance(m, 1)
		streams := benchStreams(in, 2, 64*topology.KB, 1*topology.KB)
		RunConcurrentInto(in, streams, 3, stats)
	}
}

func BenchmarkRunConcurrent16Streams(b *testing.B) {
	m := topology.Dunnington()
	stats := make([]StreamStats, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewInstance(m, 1)
		streams := benchStreams(in, 16, 64*topology.KB, 1*topology.KB)
		RunConcurrentInto(in, streams, 3, stats)
	}
}

// BenchmarkResetAtPooledTraverse is one pooled mcalibrator-shaped
// measurement on a warm instance: ResetAt, allocate, strided traversal.
// This is the steady-state unit of every sweep after pooling and must
// stay at 0 allocs/op.
func BenchmarkResetAtPooledTraverse(b *testing.B) {
	m := benchTLBMachine()
	in := NewInstance(m, 1)
	bytes, stride := int64(256*topology.KB), int64(1*topology.KB)
	var total, measured float64
	run := func(i int64) {
		in.ResetAt(1, i)
		sp := in.NewSpace()
		a := sp.Alloc(bytes)
		in.AccessStrideAccum(0, sp, a.Base, a.Bytes, stride, &total, &measured)
	}
	run(0) // warm the pool to steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(int64(i))
	}
}

// BenchmarkRunConcurrentPooled16Streams is the pooled counterpart of
// BenchmarkRunConcurrent16Streams: same workload on one reused
// instance via ResetAt + RunConcurrentInto with caller-owned buffers.
func BenchmarkRunConcurrentPooled16Streams(b *testing.B) {
	m := topology.Dunnington()
	in := NewInstance(m, 1)
	stats := make([]StreamStats, 16)
	addrs := make([][]int64, 16)
	streams := make([]Stream, 16)
	run := func() {
		in.ResetAt(1)
		for c := range streams {
			sp := in.NewSpace()
			a := sp.Alloc(64 * topology.KB)
			addrs[c] = appendStrided(addrs[c][:0], a, 1*topology.KB)
			streams[c] = Stream{Core: c, Space: sp, Addrs: addrs[c]}
		}
		RunConcurrentInto(in, streams, 3, stats)
	}
	run() // warm the pool to steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
