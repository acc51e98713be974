package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// compileStrategies are the tiling strategies every kernel is compiled
// under: pluto is the CLI's and the daemon's default; auto races pluto,
// cacheoblivious and latency tiling and scores each by searched-cap EDP.
var compileStrategies = []string{"pluto", "auto"}

// stageNames are the pipeline stages every default compilation runs.
var stageNames = []string{
	core.StagePreprocess, core.StageTile, core.StageCacheModel, core.StageCharacterize,
	core.StageModelFit, core.StageSearch, core.StageCapInsert, core.StageRewriteCleanup,
}

// compileWorkload compiles every registered kernel at bench size on both
// paper backends under each strategy. One operation is one
// core.CompilePipeline call with a fresh stage cache; no simulated
// hardware runs. The seed only permutes the order of the compiles.
type compileWorkload struct {
	rng *rand.Rand
	// untiled[kernel] are the polyhedral statement-instance counts of the
	// kernel's lowered, untiled nests, in program order.
	untiled map[string][]int64
}

func (w *compileWorkload) tailP() float64 { return 0.9 }

func newCompileWorkload(rng *rand.Rand) (*compileWorkload, error) {
	untiled, err := untiledCounts()
	if err != nil {
		return nil, err
	}
	return &compileWorkload{rng: rng, untiled: untiled}, nil
}

func (w *compileWorkload) round(e env, rep, layers *report) (roundTimes, error) {
	var rt roundTimes
	c := selfCPU()
	var targets []*roofline.Target
	for _, b := range platform.Paper() {
		t, err := roofline.Resolve(b)
		if err != nil {
			return rt, err
		}
		targets = append(targets, t)
	}
	rt.busy = selfCPU() - c // set-up is paid inside every round
	type op struct {
		kernel workloads.Kernel
		t      *roofline.Target
		spec   tiling.Spec
	}
	var ops []op
	for _, k := range workloads.All() {
		for _, t := range targets {
			for _, s := range compileStrategies {
				spec, err := tiling.ParseSpec(s)
				if err != nil {
					return rt, err
				}
				ops = append(ops, op{k, t, spec})
			}
		}
	}
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	var tr *compileTrace
	if layers != nil {
		tr = &compileTrace{stageTotal: map[string]time.Duration{}, stageRuns: map[string]int{}}
	}
	for _, o := range ops {
		mod, err := o.kernel.Build(workloads.Bench)
		if err != nil {
			return rt, err
		}
		cfg := core.DefaultConfig(o.t)
		cfg.Tiling = o.spec
		opts := core.PipelineOptions{Stages: &pipeline.Cache{}}
		var mem *memDelta
		if tr != nil {
			opts.Observe = tr.observe
			mem = startMem()
		}
		settleHeap()
		c := selfCPU()
		res, err := core.CompilePipeline(context.Background(), mod, cfg, opts)
		d := selfCPU() - c
		if tr != nil {
			alloc, gcs := mem.since()
			tr.allocBytes += alloc
			tr.gcCycles += gcs
		}
		rep.attempted++
		rt.ops = append(rt.ops, ms(d))
		rt.busy += d
		e.probe.tick()
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: compile %s on %s (%s): %v\n", o.kernel.Name, o.t.Platform.Name, o.spec.Fingerprint(), err)
			continue
		}
		where := fmt.Sprintf("compile %s on %s under %s", o.kernel.Name, o.t.Platform.Name, o.spec.Fingerprint())
		checkCompiled(rep, where, o.t, res, w.untiled[o.kernel.Name])
		if tr != nil {
			for _, r := range res.Reports {
				tr.searchEvals += int64(r.SearchEvals)
			}
		}
	}
	rt.done = len(ops)
	if tr != nil {
		tr.record(layers, rt.ops)
	}
	return rt, nil
}

func (w *compileWorkload) finish(env, *report) error { return nil }

// checkCompiled checks one compilation: no nest degraded, every selected
// and inserted cap lies on the backend's uncore grid, every class is the
// calibrated roofline's classification of the nest's operational
// intensity, and tiling kept each nest's polyhedral statement-instance
// count.
func checkCompiled(rep *report, where string, t *roofline.Target, res *core.Result, untiled []int64) {
	p := t.Platform
	rep.check(len(res.Reports) == len(untiled), "%s: %d nests, the untiled kernel has %d", where, len(res.Reports), len(untiled))
	for i, r := range res.Reports {
		if r.Degraded || r.CM == nil {
			rep.check(false, "%s: nest %s degraded: %v", where, r.Label, r.Err)
			continue
		}
		rep.check(onGrid(p, r.CapGHz), "%s: nest %s cap %g GHz is not on the uncore grid", where, r.Label, r.CapGHz)
		if want := t.Constants.Classify(r.OI); r.Class != want {
			rep.check(false, "%s: nest %s class %v, roofline classifies OI %g as %v", where, r.Label, r.Class, r.OI, want)
		}
		if i < len(untiled) && r.CM.Instances != untiled[i] {
			rep.check(false, "%s: nest %s has %d statement instances after tiling, %d before", where, r.Label, r.CM.Instances, untiled[i])
		}
	}
	for _, f := range res.Module.Funcs {
		for _, op := range f.Ops {
			if c, ok := op.(*ir.SetUncoreCap); ok {
				rep.check(onGrid(p, c.GHz), "%s: inserted cap %g GHz is not on the uncore grid", where, c.GHz)
			}
		}
	}
}

// untiledCounts counts the statement instances of every kernel's lowered
// nests before tiling, with the polyhedral library.
func untiledCounts() (map[string][]int64, error) {
	out := map[string][]int64{}
	for _, k := range workloads.All() {
		mod, err := k.BuildAffine(workloads.Bench)
		if err != nil {
			return nil, err
		}
		for _, nest := range nestsOf(mod) {
			n, err := nest.TripCount()
			if err != nil {
				return nil, fmt.Errorf("count %s nest %s: %w", k.Name, nest.Label, err)
			}
			out[k.Name] = append(out[k.Name], n)
		}
	}
	return out, nil
}

// compileTrace accumulates the compile round's per-layer figures from
// the pipeline's own stage events.
type compileTrace struct {
	stageTotal  map[string]time.Duration
	stageRuns   map[string]int
	searchEvals int64
	allocBytes  uint64
	gcCycles    uint32
}

func (tr *compileTrace) observe(ev pipeline.Event) {
	tr.stageTotal[ev.Stage] += ev.Duration
	tr.stageRuns[ev.Stage]++
}

func (tr *compileTrace) record(layers *report, compileMS []float64) {
	for _, name := range stageNames {
		mean := 0.0
		if n := tr.stageRuns[name]; n > 0 {
			mean = ms(tr.stageTotal[name]) / float64(n)
		}
		layers.set("stage."+name+"_ms", "ms", mean)
	}
	layers.set("core.compile_ms", "ms", median(compileMS))
	layers.set("compile.search_evals", "count", float64(tr.searchEvals))
	layers.set("go.alloc_mb.compile", "MB", float64(tr.allocBytes)/(1<<20))
	layers.set("go.gc_cycles.compile", "count", float64(tr.gcCycles))
}
