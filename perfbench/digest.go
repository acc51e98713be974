package main

import (
	"context"
	"fmt"
	"io"

	"polyufc/internal/core"
	"polyufc/internal/experiments"
	"polyufc/internal/hw"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// printDigest prints, one line each, every exact count and selection the
// benchmark's inputs produce: the sweep's rows and simulated profiles,
// every compile's per-nest class, cap, tiling and search effort, and the
// caps of every distinct serve request. Floats print with all their
// digits, so diffing the digests of two commits shows any change a
// speed-only optimisation must not make. The digest is computed afresh
// at each commit, never stored.
func printDigest(out io.Writer) error {
	s, err := experiments.New(workloads.Bench, nil)
	if err != nil {
		return err
	}
	for _, p := range s.Platforms() {
		rows, err := s.Fig7(p, sweepKernels)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(out, "sweep-row %s %s class=%v cap=%g base_edp=%.17g capped_edp=%.17g time_gain=%.17g energy_gain=%.17g\n",
				p.Name, r.Kernel, r.Class, r.CapGHz, r.BaselineEDP, r.PolyUFCEDP, r.TimeGain, r.EnergyGain)
		}
		t := s.Target(p.Name)
		for _, kernel := range sweepKernels {
			res, err := compileKernel(kernel, workloads.Bench, core.DefaultConfig(t))
			if err != nil {
				return err
			}
			for _, nest := range nestsOf(res.Module) {
				prof, err := hw.ProfileNest(nest, p.Cache)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "sweep-profile %s %s %s flops=%d instances=%d loads=%d stores=%d hits=%v misses=%v llc_misses=%d dram_read=%d dram_write=%d\n",
					p.Name, kernel, nest.Label, prof.Flops, prof.Instances, prof.Loads, prof.Stores,
					prof.LevelHits, prof.LevelMisses, prof.LLCMisses, prof.DRAMReadB, prof.DRAMWriteB)
			}
		}
	}

	for _, b := range platform.Paper() {
		t, err := roofline.Resolve(b)
		if err != nil {
			return err
		}
		for _, strategy := range compileStrategies {
			spec, err := tiling.ParseSpec(strategy)
			if err != nil {
				return err
			}
			for _, k := range workloads.All() {
				cfg := core.DefaultConfig(t)
				cfg.Tiling = spec
				res, err := compileKernel(k.Name, workloads.Bench, cfg)
				if err != nil {
					return err
				}
				for _, r := range res.Reports {
					fmt.Fprintf(out, "compile %s %s %s %s class=%v oi=%.17g cap=%g tiling=%s tile=%d evals=%d\n",
						b.Name, strategy, k.Name, r.Label, r.Class, r.OI, r.CapGHz, r.Tiling, r.TileSize, r.SearchEvals)
				}
			}
		}
	}

	w := &serveWorkload{modelOnly: modelOnlyRequests(), measured: measuredRequests()}
	ref, err := w.reference()
	if err != nil {
		return err
	}
	for _, r := range append(w.modelOnly, w.measured...) {
		if r.endpoint != "/v1/search" {
			continue // compile and characterize share the search's compilation
		}
		key := refKey(r.body)
		for _, kr := range ref.results[key].Reports {
			fmt.Fprintf(out, "serve %s %s class=%v cap=%g socket_caps=%v\n", key, kr.Label, kr.Class, kr.CapGHz, kr.SocketCaps)
		}
	}
	return nil
}

// compileKernel builds a kernel at the given size and compiles it.
func compileKernel(kernel string, size workloads.SizeClass, cfg core.Config) (*core.Result, error) {
	k, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	mod, err := k.Build(size)
	if err != nil {
		return nil, err
	}
	return core.CompilePipeline(context.Background(), mod, cfg, core.PipelineOptions{})
}
