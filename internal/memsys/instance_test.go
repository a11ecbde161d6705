package memsys

import (
	"testing"

	"servet/internal/topology"
)

// traverse performs `passes` strided traversals of the array on the
// given core and returns the average cycles per access of all passes
// after the first (warm-up) pass.
func traverse(in *Instance, core int, sp *Space, a *Array, stride int64, passes int) float64 {
	var cycles float64
	var n int64
	for pass := 0; pass < passes; pass++ {
		for off := int64(0); off < a.Bytes; off += stride {
			c := in.Access(core, sp, a.Base+off)
			if pass > 0 {
				cycles += c
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return cycles / float64(n)
}

func TestAccessCostLevels(t *testing.T) {
	// Dempsey: L1 3cy, +L2 14cy, +mem 220cy.
	m := topology.Dempsey()
	in := NewInstance(m, 1)
	sp := in.NewSpace()
	a := sp.Alloc(4 * topology.KB)

	cold := in.Access(0, sp, a.Base)
	if want := 3 + 14 + 220.0; cold != want {
		t.Errorf("cold access = %g, want %g", cold, want)
	}
	warm := in.Access(0, sp, a.Base)
	if warm != 3 {
		t.Errorf("L1 hit = %g, want 3", warm)
	}
}

func TestL1SharpTransition(t *testing.T) {
	// Dunnington L1 = 32 KB, virtually indexed: a 32 KB array at 1 KB
	// stride fits exactly; 64 KB thrashes to L2. This is the sharp
	// first gradient peak of Fig. 2.
	m := topology.Dunnington()
	in := NewInstance(m, 2)
	sp := in.NewSpace()

	fit := sp.Alloc(32 * topology.KB)
	cFit := traverse(in, 0, sp, fit, 1024, 4)
	if cFit != 3 {
		t.Errorf("32KB traversal = %g cycles/access, want 3 (pure L1)", cFit)
	}

	in.ResetCaches()
	spill := sp.Alloc(64 * topology.KB)
	cSpill := traverse(in, 0, sp, spill, 1024, 4)
	if want := 3 + 12.0; cSpill != want {
		t.Errorf("64KB traversal = %g cycles/access, want %g (pure L2)", cSpill, want)
	}
}

func TestPhysicallyIndexedSmear(t *testing.T) {
	// Dempsey's 2 MB 8-way physically indexed L2 with random page
	// placement: miss rate rises gradually across [1MB, 4MB] rather
	// than jumping at 2 MB (the paper's motivation for the
	// probabilistic estimator).
	m := topology.Dempsey()
	in := NewInstance(m, 3)
	sp := in.NewSpace()

	avg := func(bytes int64) float64 {
		in.ResetCaches()
		a := sp.Alloc(bytes)
		defer sp.Free(a)
		return traverse(in, 0, sp, a, 1024, 4)
	}

	c1 := avg(1 * topology.MB) // mean page-set load 4 of 8: few conflicts
	c2 := avg(2 * topology.MB) // mean load 8: ~half the page sets overflow
	c4 := avg(4 * topology.MB) // mean load 16: nearly all overflow

	if !(c1 < c2 && c2 < c4) {
		t.Fatalf("no smear: c(1MB)=%g c(2MB)=%g c(4MB)=%g", c1, c2, c4)
	}
	if c1 > 60 {
		t.Errorf("c(1MB) = %g, want mostly L2 hits (< 60)", c1)
	}
	if c2 < 40 || c2 > 190 {
		t.Errorf("c(2MB) = %g, want partial misses (40..190)", c2)
	}
	if c4 < 170 {
		t.Errorf("c(4MB) = %g, want mostly memory accesses (> 170)", c4)
	}
}

func TestPageColoringSharpensTransition(t *testing.T) {
	// With page coloring the physically indexed L2 behaves like a
	// virtually indexed one: fits exactly up to 2 MB, thrashes beyond.
	m := topology.ColoredSMP()
	in := NewInstance(m, 4)
	sp := in.NewSpace()

	a := sp.Alloc(2 * topology.MB)
	cFit := traverse(in, 0, sp, a, 1024, 4)
	if want := 3 + 14.0; cFit != want {
		t.Errorf("2MB colored traversal = %g, want %g", cFit, want)
	}

	in.ResetCaches()
	b := sp.Alloc(4 * topology.MB)
	cSpill := traverse(in, 0, sp, b, 1024, 4)
	if want := 3 + 14 + 220.0; cSpill != want {
		t.Errorf("4MB colored traversal = %g, want %g (full thrash)", cSpill, want)
	}
}

func TestPrefetcherHidesSmallStrides(t *testing.T) {
	// A 256 B stride is within the prefetcher's reach: traversing an
	// array larger than L1 must still look fast, which is exactly why
	// Servet uses a 1 KB stride (Section III-A).
	m := topology.Dempsey() // L1 16 KB
	in := NewInstance(m, 5)
	sp := in.NewSpace()
	a := sp.Alloc(64 * topology.KB)

	cSmall := traverse(in, 0, sp, a, 256, 4)
	in.ResetCaches()
	cProbe := traverse(in, 0, sp, a, 1024, 4)

	// With prefetching, most 256B-stride accesses hit L1 even though
	// the array is 4x the L1 size; with the 1 KB probe stride the
	// prefetcher stays silent and the array misses to L2.
	if cSmall > 8 {
		t.Errorf("256B-stride traversal = %g cycles/access, want < 8 (prefetched)", cSmall)
	}
	if cProbe != 17 {
		t.Errorf("1KB-stride traversal = %g cycles/access, want 17 (L2)", cProbe)
	}
}

func TestPrefetcherStopsAtPageBoundary(t *testing.T) {
	p := &prefetcher{maxStride: 512}
	page := int64(4096)
	const pageShift = 12
	// A 256-byte stride stream running across a page border: every
	// issued prefetch must stay within the page of the access that
	// triggered it, and at least one prefetch must fire once the
	// stream is long enough.
	fired := 0
	for off := int64(0); off <= 8*256; off += 256 {
		vaddr := int64(4096-1024) + off
		next, ok := p.observe(vaddr, pageShift)
		if !ok {
			continue
		}
		fired++
		if next/page != vaddr/page {
			t.Fatalf("prefetch of %#x crossed the page of %#x", next, vaddr)
		}
	}
	if fired == 0 {
		t.Error("prefetcher never fired on a steady 256B stream")
	}
	p.reset()
	if p.primed || p.streak != 0 {
		t.Error("reset did not clear prefetcher state")
	}
}

func TestPrefetcherIgnoresLargeStride(t *testing.T) {
	p := &prefetcher{maxStride: 512}
	for i := int64(0); i < 10; i++ {
		if _, ok := p.observe(i*1024, 12); ok {
			t.Fatal("prefetcher fired on a 1 KB stride")
		}
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	p := &prefetcher{maxStride: 0}
	for i := int64(0); i < 10; i++ {
		if _, ok := p.observe(i*64, 12); ok {
			t.Fatal("disabled prefetcher fired")
		}
	}
}

func TestSharedCacheThrashBetweenCores(t *testing.T) {
	// Dunnington cores 0 and 12 share a 3 MB L2. Two concurrent 2 MB
	// traversals (the 2/3 sizing of Fig. 5) must thrash; cores 0 and 3
	// (different processors) must not.
	m := topology.Dunnington()
	const arrayBytes = 2 * topology.MB

	ref := func() float64 {
		in := NewInstance(m, 6)
		sp := in.NewSpace()
		a := sp.Alloc(arrayBytes)
		return traverse(in, 0, sp, a, 1024, 4)
	}()

	pairAvg := func(coreB int) float64 {
		in := NewInstance(m, 6)
		spA, spB := in.NewSpace(), in.NewSpace()
		a := spA.Alloc(arrayBytes)
		b := spB.Alloc(arrayBytes)
		addrs := func(arr *Array) []int64 {
			var out []int64
			for off := int64(0); off < arr.Bytes; off += 1024 {
				out = append(out, arr.Base+off)
			}
			return out
		}
		stats := make([]StreamStats, 2)
		RunConcurrentInto(in, []Stream{
			{Core: 0, Space: spA, Addrs: addrs(a)},
			{Core: coreB, Space: spB, Addrs: addrs(b)},
		}, 4, stats)
		return stats[0].AvgCycles()
	}

	sharing := pairAvg(12)
	private := pairAvg(3)
	if ratio := sharing / ref; ratio < 1.8 {
		t.Errorf("shared-L2 pair ratio = %.2f, want > 1.8 (ref %.1f, got %.1f)", ratio, ref, sharing)
	}
	if ratio := private / ref; ratio > 1.3 {
		t.Errorf("private pair ratio = %.2f, want ~1 (ref %.1f, got %.1f)", ratio, ref, private)
	}
}

func TestRunConcurrentEmptyAndShortStreams(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 7)
	sp := in.NewSpace()
	a := sp.Alloc(4 * topology.KB)
	stats := make([]StreamStats, 2)
	RunConcurrentInto(in, []Stream{
		{Core: 0, Space: sp, Addrs: nil},
		{Core: 1, Space: sp, Addrs: []int64{a.Base}},
	}, 3, stats)
	if stats[0].Accesses != 0 {
		t.Errorf("empty stream measured %d accesses", stats[0].Accesses)
	}
	if stats[1].Accesses != 2 { // passes 1 and 2 measured
		t.Errorf("short stream measured %d accesses, want 2", stats[1].Accesses)
	}
	if stats[1].AvgCycles() <= 0 {
		t.Error("short stream has no cost")
	}
	if (StreamStats{}).AvgCycles() != 0 {
		t.Error("zero stats should average to 0")
	}
}

func TestSpaceAllocFreeCycle(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 8)
	sp := in.NewSpace()
	before := in.os.inUse
	a := sp.Alloc(64 * topology.KB)
	if got := in.os.inUse - before; got != 16 {
		t.Errorf("allocated %d pages, want 16", got)
	}
	sp.Free(a)
	if got := in.os.inUse - before; got != 0 {
		t.Errorf("%d pages leaked", got)
	}
}

func TestSpaceDoubleFreePanics(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 9)
	sp := in.NewSpace()
	a := sp.Alloc(4 * topology.KB)
	sp.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	sp.Free(a)
}

func TestUnmappedAccessPanics(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 10)
	sp := in.NewSpace()
	defer func() {
		if recover() == nil {
			t.Error("unmapped access did not panic")
		}
	}()
	in.Access(0, sp, 12345)
}

func TestSpacesDoNotAliasVirtually(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 11)
	spA, spB := in.NewSpace(), in.NewSpace()
	a := spA.Alloc(4 * topology.KB)
	b := spB.Alloc(4 * topology.KB)
	if a.Base == b.Base {
		t.Error("two spaces allocated the same virtual base")
	}
}

func TestColoringAssignsCongruentPages(t *testing.T) {
	m := topology.ColoredSMP() // colors = 2MB/(8*4KB) = 64
	in := NewInstance(m, 12)
	sp := in.NewSpace()
	a := sp.Alloc(256 * topology.KB)
	ps := m.PageBytes
	for v := a.Base; v < a.Base+a.Bytes; v += ps {
		vpage := v / ps
		ppage := sp.translate(v) / ps
		if vpage%64 != ppage%64 {
			t.Fatalf("page color mismatch: vpage %d ppage %d", vpage, ppage)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		m := topology.Dempsey()
		in := NewInstance(m, 42)
		sp := in.NewSpace()
		a := sp.Alloc(3 * topology.MB)
		return traverse(in, 0, sp, a, 1024, 3)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %g != %g (nondeterministic)", i, got, first)
		}
	}
}

// TestNewInstanceAtDeterministicByKeys: two instances built from the
// same (seed, keys) map every slot to the same frame — the invariant
// that lets every (level, pair) measurement of a sharded sweep build
// its memory system independently — while different keys derive
// different placements.
func TestNewInstanceAtDeterministicByKeys(t *testing.T) {
	m := topology.Dempsey()
	frames := func(in *Instance) []int64 {
		sp := in.NewSpace()
		a := sp.Alloc(256 * topology.KB)
		var out []int64
		for v := a.Base; v < a.Base+a.Bytes; v += m.PageBytes {
			out = append(out, sp.translate(v)/m.PageBytes)
		}
		return out
	}
	a := frames(NewInstanceAt(m, 1, 2, 5, 0))
	b := frames(NewInstanceAt(m, 1, 2, 5, 0))
	diffKeys := frames(NewInstanceAt(m, 1, 2, 5, 1))
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != diffKeys[i] {
			diff = true
		}
	}
	if !same {
		t.Error("identical keys placed pages differently")
	}
	if !diff {
		t.Error("different measurement keys drew an identical placement")
	}
	// NewInstance is NewInstanceAt with no keys.
	plain := frames(NewInstance(m, 1))
	keyless := frames(NewInstanceAt(m, 1))
	for i := range plain {
		if plain[i] != keyless[i] {
			t.Fatal("NewInstance diverges from keyless NewInstanceAt")
		}
	}
}

// TestPlacementIgnoresSiblingSpaces: a space's placement does not
// depend on allocations other spaces performed earlier in the same
// instance (the order-dependence the shared advancing RNG used to
// introduce).
func TestPlacementIgnoresSiblingSpaces(t *testing.T) {
	m := topology.Dempsey()
	secondSpaceFrames := func(warmup int64) []int64 {
		in := NewInstanceAt(m, 9)
		first := in.NewSpace()
		if warmup > 0 {
			first.Alloc(warmup)
		}
		sp := in.NewSpace()
		a := sp.Alloc(64 * topology.KB)
		var out []int64
		for v := a.Base; v < a.Base+a.Bytes; v += m.PageBytes {
			out = append(out, sp.translate(v)/m.PageBytes)
		}
		return out
	}
	lean := secondSpaceFrames(0)
	busy := secondSpaceFrames(512 * topology.KB)
	for i := range lean {
		if lean[i] != busy[i] {
			t.Fatalf("page %d placed at frame %d vs %d depending on a sibling space's allocations",
				i, lean[i], busy[i])
		}
	}
}

func TestCachedHelper(t *testing.T) {
	m := topology.Dempsey()
	in := NewInstance(m, 13)
	sp := in.NewSpace()
	a := sp.Alloc(4 * topology.KB)
	if in.Cached(1, 0, sp, a.Base) {
		t.Error("line cached before access")
	}
	in.Access(0, sp, a.Base)
	if !in.Cached(1, 0, sp, a.Base) || !in.Cached(2, 0, sp, a.Base) {
		t.Error("line not filled into L1+L2 after access")
	}
}

func TestTLBMissPenalty(t *testing.T) {
	m := topology.TLBBox() // 64 entries, 30-cycle penalty, L1 3cy
	in := NewInstance(m, 20)
	sp := in.NewSpace()
	// Touch one line per page with a page+line stride (as the DetectTLB
	// probe does: the extra line offset spreads consecutive pages over
	// different cache sets, so the cache stays out of the signal).
	stride := m.PageBytes + 64
	touchPages := func(a *Array, np int64) float64 {
		var last float64
		for pass := 0; pass < 3; pass++ {
			var sum float64
			for i := int64(0); i < np; i++ {
				sum += in.Access(0, sp, a.Base+i*stride)
			}
			last = sum / float64(np)
		}
		return last
	}
	a := sp.Alloc(32 * stride)
	if warm := touchPages(a, 32); warm != 3 {
		t.Errorf("32-page working set: %g cycles/access, want 3 (TLB hits)", warm)
	}
	// 128 pages exceed the 64 entries: cyclic LRU thrash, every access
	// pays the translation penalty.
	in.ResetCaches()
	b := sp.Alloc(128 * stride)
	if miss := touchPages(b, 128); miss < 33 {
		t.Errorf("128-page working set: %g cycles/access, want >= 33 (TLB misses)", miss)
	}
}

func TestTLBDisabledByDefault(t *testing.T) {
	m := topology.Dempsey()
	if m.TLBEntries != 0 {
		t.Fatal("paper machines must not model a TLB")
	}
	in := NewInstance(m, 21)
	sp := in.NewSpace()
	a := sp.Alloc(256 * m.PageBytes)
	// Touch many pages; without a TLB the second pass is pure L1/L2.
	for p := int64(0); p < 256; p++ {
		in.Access(0, sp, a.Base+p*m.PageBytes)
	}
	var sum float64
	for p := int64(0); p < 256; p++ {
		sum += in.Access(0, sp, a.Base+p*m.PageBytes)
	}
	// 256 pages, one line each: 256 lines spread over L1 sets...
	// page-stride accesses collide in one set group, so expect L1/L2
	// levels only — no 30-cycle translation penalty anywhere.
	if avg := sum / 256; avg > 220 {
		t.Errorf("TLB-less machine paying translation costs: %g cycles/access", avg)
	}
}

func TestResetClearsTLB(t *testing.T) {
	m := topology.TLBBox()
	in := NewInstance(m, 22)
	sp := in.NewSpace()
	a := sp.Alloc(4 * m.PageBytes)
	in.Access(0, sp, a.Base)
	cold := in.Access(0, sp, a.Base) // warm: 3 cycles
	in.ResetCaches()
	again := in.Access(0, sp, a.Base)
	if again <= cold {
		t.Errorf("reset did not clear the TLB: %g vs %g", again, cold)
	}
}
