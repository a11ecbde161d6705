package experiments

import (
	"context"
	"fmt"

	"servet/internal/core"
	"servet/internal/memsys"
	"servet/internal/mpisim"
	"servet/internal/stats"
	"servet/internal/topology"
)

// calOptions picks mcalibrator options sized for figure generation.
func calOptions(o Opt, m *topology.Machine) core.Options {
	opt := core.Options{Seed: o.seed()}
	if o.Quick {
		opt.Allocations = 1
		opt.Passes = 1
	}
	_ = m
	return opt
}

// fig2a traverses the size grid on Dempsey and Dunnington and plots
// cycles per access, as the paper's Fig. 2(a).
func fig2a(ctx context.Context, o Opt) (*Result, error) {
	res := &Result{XLabel: "array bytes", YLabel: "cycles/access"}
	for _, m := range []*topology.Machine{topology.Dempsey(), topology.Dunnington()} {
		cal, err := core.Mcalibrator(ctx, m, 0, calOptions(o, m))
		if err != nil {
			return nil, err
		}
		s := Series{Name: m.Name}
		for i := range cal.Sizes {
			s.X = append(s.X, float64(cal.Sizes[i]))
			s.Y = append(s.Y, cal.Cycles[i])
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: C ranges %.1f..%.1f cycles", m.Name, minOf(s.Y), maxOf(s.Y)))
	}
	return res, nil
}

// fig2b is the gradient view of fig2a.
func fig2b(ctx context.Context, o Opt) (*Result, error) {
	base, err := fig2a(ctx, o)
	if err != nil {
		return nil, err
	}
	res := &Result{XLabel: "array bytes", YLabel: "C[k+1]/C[k]"}
	for _, s := range base.Series {
		g := stats.Gradient(s.Y)
		gs := Series{Name: s.Name, X: s.X[:len(g)], Y: g}
		res.Series = append(res.Series, gs)
		peak := stats.ArgMax(g)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: first/strongest gradient peak at %.0f bytes (G=%.2f)",
			s.Name, s.X[peak], g[peak]))
	}
	return res, nil
}

// sharedRatioFigure measures the Fig. 5 ratio for every pair that
// contains core 0, one series per cache level, as Figs. 8(a)/8(b).
func sharedRatioFigure(ctx context.Context, m *topology.Machine, levels []core.DetectedCache, o Opt) (*Result, error) {
	res := &Result{XLabel: "partner core of core 0", YLabel: "cache access overhead ratio"}
	var pairs [][2]int
	for b := 1; b < m.CoresPerNode; b++ {
		pairs = append(pairs, [2]int{0, b})
	}
	opt := core.Options{Seed: o.seed()}
	if o.Quick {
		opt.Passes = 1
	}
	shared, err := core.SharedCachePairs(ctx, m, levels, pairs, opt)
	if err != nil {
		return nil, err
	}
	for li, lvl := range shared {
		s := Series{Name: fmt.Sprintf("L%d", levels[li].Level)}
		flagged := 0
		for _, pr := range lvl.Ratios {
			s.X = append(s.X, float64(pr.B))
			s.Y = append(s.Y, pr.Ratio)
			if pr.Ratio > 2 {
				flagged++
			}
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("L%d: %d of %d pairs above ratio 2 -> groups %v",
			levels[li].Level, flagged, len(lvl.Ratios), lvl.Groups))
	}
	return res, nil
}

func fig8a(ctx context.Context, o Opt) (*Result, error) {
	return sharedRatioFigure(ctx, topology.Dunnington(), []core.DetectedCache{
		{Level: 1, SizeBytes: 32 * topology.KB},
		{Level: 2, SizeBytes: 3 * topology.MB},
		{Level: 3, SizeBytes: 12 * topology.MB},
	}, o)
}

func fig8b(ctx context.Context, o Opt) (*Result, error) {
	return sharedRatioFigure(ctx, topology.FinisTerrae(1), []core.DetectedCache{
		{Level: 1, SizeBytes: 16 * topology.KB},
		{Level: 2, SizeBytes: 256 * topology.KB},
		{Level: 3, SizeBytes: 9 * topology.MB},
	}, o)
}

// fig9a plots the memory bandwidth of core 0 while it shares the
// memory system with each partner core in turn.
func fig9a(_ context.Context, o Opt) (*Result, error) {
	res := &Result{XLabel: "partner core of core 0", YLabel: "GB/s of core 0"}
	for _, m := range []*topology.Machine{topology.Dunnington(), topology.FinisTerrae(1)} {
		ref := memsys.StreamBandwidth(m, 0, []int{0})
		s := Series{Name: m.Name}
		worst := ref
		for b := 1; b < m.CoresPerNode; b++ {
			bw := memsys.StreamBandwidth(m, 0, []int{0, b})
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, bw)
			if bw < worst {
				worst = bw
			}
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: ref %.2f GB/s, worst pair %.2f GB/s", m.Name, ref, worst))
	}
	return res, nil
}

// fig9b plots the effective per-core bandwidth as cores of each
// overhead group activate one by one.
func fig9b(ctx context.Context, o Opt) (*Result, error) {
	res := &Result{XLabel: "concurrently accessing cores", YLabel: "GB/s per core"}
	opt := core.Options{Seed: o.seed()}
	for _, m := range []*topology.Machine{topology.Dunnington(), topology.FinisTerrae(1)} {
		mem, _, err := core.MemoryOverhead(ctx, m, opt)
		if err != nil {
			return nil, err
		}
		for i, lvl := range mem.Levels {
			name := fmt.Sprintf("%s level %d", m.Name, i)
			if m.Name == "finisterrae" {
				// The paper labels the two Finis Terrae lines by their
				// hardware cause.
				if len(lvl.Groups[0]) == 4 {
					name = "finisterrae bus"
				} else {
					name = "finisterrae cell"
				}
			} else if len(mem.Levels) == 1 {
				name = m.Name
			}
			s := Series{Name: name}
			for _, pt := range lvl.Scalability {
				s.X = append(s.X, float64(pt.Cores))
				s.Y = append(s.Y, pt.PerCoreGBs)
			}
			res.Series = append(res.Series, s)
			last := lvl.Scalability[len(lvl.Scalability)-1]
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %.2f GB/s/core at %d cores",
				name, last.PerCoreGBs, last.Cores))
		}
	}
	return res, nil
}

func commOptions(o Opt) core.Options {
	opt := core.Options{Seed: o.seed()}
	if o.Quick {
		opt.CommReps = 2
		opt.BWSizes = []int64{4 * topology.KB, 64 * topology.KB, 1 * topology.MB}
	}
	return opt
}

// fig10a plots the one-way latency from core 0 to every other core.
func fig10a(ctx context.Context, o Opt) (*Result, error) {
	res := &Result{XLabel: "destination core", YLabel: "one-way latency (us)"}
	reps := 25
	if o.Quick {
		reps = 2
	}
	for _, mc := range []struct {
		m   *topology.Machine
		msg int64
	}{
		{topology.Dunnington(), 32 * topology.KB},
		{topology.FinisTerrae(2), 16 * topology.KB},
	} {
		s := Series{Name: mc.m.Name}
		for b := 1; b < mc.m.TotalCores(); b++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lat, err := mpisim.PingPongOneWayNS(mc.m, 0, b, mc.msg, reps)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, lat/1000)
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: latency range %.1f..%.1f us",
			mc.m.Name, minOf(s.Y), maxOf(s.Y)))
	}
	return res, nil
}

// fig10b plots the concurrent-message slowdown of the slowest layer of
// each machine (inter-processor for Dunnington, InfiniBand for Finis
// Terrae).
func fig10b(ctx context.Context, o Opt) (*Result, error) {
	res := &Result{XLabel: "concurrent messages", YLabel: "slowdown vs isolated message"}
	for _, mc := range []struct {
		m     *topology.Machine
		msg   int64
		layer string
	}{
		{topology.Dunnington(), 32 * topology.KB, "inter-processor"},
		{topology.FinisTerrae(2), 16 * topology.KB, "network"},
	} {
		comm, _, err := core.CommunicationCosts(ctx, mc.m, mc.msg, commOptions(o))
		if err != nil {
			return nil, err
		}
		for _, l := range comm.Layers {
			if l.Name != mc.layer {
				continue
			}
			s := Series{Name: mc.m.Name + " " + l.Name}
			for _, pt := range l.Scalability {
				s.X = append(s.X, float64(pt.Messages))
				s.Y = append(s.Y, pt.Slowdown)
			}
			res.Series = append(res.Series, s)
			last := l.Scalability[len(l.Scalability)-1]
			res.Notes = append(res.Notes, fmt.Sprintf("%s %s: %.1fx slowdown at %d concurrent messages",
				mc.m.Name, l.Name, last.Slowdown, last.Messages))
		}
	}
	return res, nil
}

// bandwidthFigure sweeps message sizes on each layer's representative
// pair (Figs. 10(c)/(d)).
func bandwidthFigure(ctx context.Context, m *topology.Machine, msg int64, o Opt) (*Result, error) {
	res := &Result{XLabel: "message bytes", YLabel: "GB/s"}
	comm, _, err := core.CommunicationCosts(ctx, m, msg, commOptions(o))
	if err != nil {
		return nil, err
	}
	for _, l := range comm.Layers {
		s := Series{Name: l.Name}
		peak := 0.0
		for _, bp := range l.Bandwidth {
			s.X = append(s.X, float64(bp.Bytes))
			s.Y = append(s.Y, bp.GBs)
			if bp.GBs > peak {
				peak = bp.GBs
			}
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: peak %.2f GB/s", l.Name, peak))
	}
	return res, nil
}

func fig10c(ctx context.Context, o Opt) (*Result, error) {
	return bandwidthFigure(ctx, topology.Dunnington(), 32*topology.KB, o)
}

func fig10d(ctx context.Context, o Opt) (*Result, error) {
	return bandwidthFigure(ctx, topology.FinisTerrae(2), 16*topology.KB, o)
}

func minOf(xs []float64) float64 {
	m, _ := stats.MinMax(xs)
	return m
}

func maxOf(xs []float64) float64 {
	_, m := stats.MinMax(xs)
	return m
}
