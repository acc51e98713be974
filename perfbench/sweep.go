package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/experiments"
	"polyufc/internal/hw"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/workloads"
)

// sweepKernels is the sweep's fixed kernel subset, chosen so one round
// takes about 16 s on a 2-core box while covering the simulator's cases:
// bicg streams arrays larger than either LLC (miss-heavy), syrk is a
// tiled cubic kernel whose tiles stay in L1/L2 (hit-heavy), cholesky,
// trisolv and durbin have triangular bounds, and sdpa-gemma2 goes
// through the torch -> linalg -> affine lowering.
var sweepKernels = []string{"bicg", "cholesky", "trisolv", "durbin", "syrk", "sdpa-gemma2"}

// sweepWorkload runs cold Fig. 7 sweeps: every round builds a fresh
// experiments.Suite, so calibration and every cache start empty, and
// produces one row per kernel and paper backend, one at a time. The seed
// only permutes the order of the rows.
type sweepWorkload struct {
	rng *rand.Rand
}

func (w *sweepWorkload) tailP() float64 { return 0 }

func (w *sweepWorkload) round(e env, rep, layers *report) (roundTimes, error) {
	var rt roundTimes
	c := selfCPU()
	s, err := experiments.New(workloads.Bench, nil)
	rt.busy = selfCPU() - c // set-up is paid inside every round
	if err != nil {
		return rt, err
	}
	s.Concurrency = 1
	type op struct {
		kernel string
		p      *hw.Platform
	}
	var ops []op
	for _, k := range sweepKernels {
		for _, p := range s.Platforms() {
			ops = append(ops, op{k, p})
		}
	}
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var tr *simTrace
	if layers != nil {
		tr = &simTrace{}
	}
	for _, o := range ops {
		var mem *memDelta
		if tr != nil {
			mem = startMem()
		}
		settleHeap()
		c := selfCPU()
		rows, err := s.Fig7(o.p, []string{o.kernel})
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
			fmt.Fprintf(os.Stderr, "perfbench: sweep %s on %s: %v\n", o.kernel, o.p.Name, err)
			continue
		}
		checkRow(rep, o.p, rows[0])
		if tr != nil {
			if err := tr.probe(rep, s.Target(o.p.Name), o.kernel, rows[0]); err != nil {
				return rt, err
			}
		}
	}
	rt.done = len(ops)
	if tr != nil {
		tr.record(layers, s)
	}
	return rt, nil
}

// checkRow checks one Fig. 7 row: the sweep tolerates no degraded
// kernel, the cap lies on the backend's uncore grid and the EDPs are
// positive, finite and consistent with the reported gain.
func checkRow(rep *report, p *hw.Platform, r experiments.Fig7Row) {
	where := fmt.Sprintf("sweep %s on %s", r.Kernel, p.Name)
	rep.check(!r.Degraded, "%s: degraded", where)
	rep.check(onGrid(p, r.CapGHz), "%s: cap %g GHz is not on the uncore grid", where, r.CapGHz)
	rep.check(finitePositive(r.BaselineEDP) && finitePositive(r.PolyUFCEDP),
		"%s: EDPs %g and %g", where, r.BaselineEDP, r.PolyUFCEDP)
	rep.check(math.Abs(r.EDPGain-(1-r.PolyUFCEDP/r.BaselineEDP)) < 1e-12,
		"%s: EDP gain %g does not match EDPs %g/%g", where, r.EDPGain, r.PolyUFCEDP, r.BaselineEDP)
}

// onGrid reports whether ghz is one of the backend's selectable uncore
// caps.
func onGrid(p *hw.Platform, ghz float64) bool {
	if ghz < p.UncoreMin-1e-9 || ghz > p.UncoreMax+1e-9 {
		return false
	}
	if math.Abs(ghz-p.UncoreMax) < 1e-9 {
		return true
	}
	for _, f := range p.UncoreSteps() {
		if math.Abs(f-ghz) < 1e-9 {
			return true
		}
	}
	return false
}

// simTrace accumulates the sweep's per-layer figures. The profiler
// layers are timed by compiling each row's kernel again and running its
// nests through interp.RunNest (no tracer) and hw.ProfileNest, outside
// the row's own timing.
type simTrace struct {
	interp, profile, measure time.Duration
	measures                 int
	accesses, llcMisses      int64
	dramBytes                int64
	resid                    []float64
	allocBytes               uint64
	gcCycles                 uint32
}

// probe times the layer calls behind one row and checks the bench-size
// counts: per-level conservation, and interpreter counts equal to the
// cache model's polyhedral counts of the same nest.
func (tr *simTrace) probe(rep *report, t *roofline.Target, kernel string, row experiments.Fig7Row) error {
	k, err := workloads.ByName(kernel)
	if err != nil {
		return err
	}
	mod, err := k.Build(workloads.Bench)
	if err != nil {
		return err
	}
	p := t.Platform
	res, err := core.CompilePipeline(context.Background(), mod, core.DefaultConfig(t), core.PipelineOptions{})
	if err != nil {
		return fmt.Errorf("sweep probe %s on %s: %w", kernel, p.Name, err)
	}
	reports := reportsByLabel(res)
	dominant := dominantReport(res)
	rep.check(dominant.CapGHz == row.CapGHz && dominant.Class == row.Class,
		"sweep %s on %s: row cap %g (%v), direct compile %g (%v)", kernel, p.Name, row.CapGHz, row.Class, dominant.CapGHz, dominant.Class)
	m := hw.NewMachine(p)
	var predicted, measured float64
	for _, nest := range nestsOf(res.Module) {
		where := fmt.Sprintf("sweep %s nest %s on %s", kernel, nest.Label, p.Name)
		t0 := time.Now()
		st, err := interp.RunNest(nest, interp.NullTracer{})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		prof, err := hw.ProfileNest(nest, p.Cache)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		tr.interp += t1.Sub(t0)
		tr.profile += t2.Sub(t1)
		const reps = 200
		t3 := time.Now()
		var r hw.RunResult
		for i := 0; i < reps; i++ {
			r = m.Measure(prof)
		}
		tr.measure += time.Since(t3)
		tr.measures += reps
		rep.check(finitePositive(r.Seconds) && finitePositive(r.PkgJoules), "%s: measured %g s %g J", where, r.Seconds, r.PkgJoules)

		rep.check(st.Flops == prof.Flops && st.Instances == prof.Instances && st.Loads == prof.Loads && st.Stores == prof.Stores,
			"%s: interpreter counts %+v differ from the profile's", where, st)
		if fault := conservationFault(prof, p.Cache.Levels[0].LineSize); fault != "" {
			rep.check(false, "%s: %s", where, fault)
		}
		kr, ok := reports[nest.Label]
		rep.check(ok && kr.CM != nil, "%s: no cache-model report", where)
		if ok && kr.CM != nil {
			cm := kr.CM
			rep.check(cm.Flops == st.Flops && cm.Instances == st.Instances && cm.Loads == st.Loads && cm.Stores == st.Stores,
				"%s: interpreter flops/instances/loads/stores %d/%d/%d/%d, polyhedral %d/%d/%d/%d",
				where, st.Flops, st.Instances, st.Loads, st.Stores, cm.Flops, cm.Instances, cm.Loads, cm.Stores)
			predicted += kr.EstDefault.Seconds
		}
		measured += m.MeasureAt(prof, p.CoreBase, p.UncoreMax).Seconds
		tr.accesses += prof.LevelHits[0] + prof.LevelMisses[0]
		tr.llcMisses += prof.LLCMisses
		tr.dramBytes += prof.DRAMReadB + prof.DRAMWriteB
	}
	tr.resid = append(tr.resid, math.Abs(predicted-measured)/measured)
	return nil
}

// record writes the sweep's per-layer metrics.
func (tr *simTrace) record(layers *report, s *experiments.Suite) {
	layers.set("interp.run_s", "s", tr.interp.Seconds())
	layers.set("hw.profile_s", "s", tr.profile.Seconds())
	layers.set("cachesim.s", "s", (tr.profile - tr.interp).Seconds())
	layers.set("sim.maccess_per_s", "M/s", float64(tr.accesses)/tr.profile.Seconds()/1e6)
	layers.set("sim.accesses", "count", float64(tr.accesses))
	layers.set("sim.llc_misses", "count", float64(tr.llcMisses))
	layers.set("sim.dram_bytes", "bytes", float64(tr.dramBytes))
	layers.set("hw.measure_us", "us", tr.measure.Seconds()*1e6/float64(tr.measures))
	layers.set("suite.profile_hit_ratio", "ratio", ratio(s.ProfileStats()))
	layers.set("suite.stage_hit_ratio", "ratio", ratio(s.StageCacheStats()))
	layers.set("model.time_resid", "ratio", median(tr.resid))
	layers.set("go.alloc_mb.sweep", "MB", float64(tr.allocBytes)/(1<<20))
	layers.set("go.gc_cycles.sweep", "count", float64(tr.gcCycles))
}

// sweepFinish cross-checks the exact simulator against the reference
// LRU simulator on the test-size versions of the sweep's nests, under
// both paper cache geometries.
func (w *sweepWorkload) finish(e env, rep *report) error {
	for _, b := range platform.Paper() {
		t, err := roofline.Resolve(b)
		if err != nil {
			return err
		}
		for _, kernel := range sweepKernels {
			k, err := workloads.ByName(kernel)
			if err != nil {
				return err
			}
			mod, err := k.Build(workloads.Test)
			if err != nil {
				return err
			}
			res, err := core.Compile(mod, core.DefaultConfig(t))
			if err != nil {
				return err
			}
			for _, nest := range nestsOf(res.Module) {
				got, err := hw.ProfileNest(nest, t.Platform.Cache)
				if err != nil {
					return err
				}
				want, err := refProfile(nest, t.Platform.Cache)
				if err != nil {
					return err
				}
				if diff := sameCounts(got, want); diff != "" {
					rep.check(false, "reference simulator: %s nest %s on %s: %s", kernel, nest.Label, b.Name, diff)
				}
			}
		}
	}
	return nil
}

// processSetups measures the set-up a sweep or compile user pays before
// the first row: a fresh polyufc-bench process that registers the
// kernels, loads and calibrates both paper backends and prints their
// Table I roofline constants. Each sample is the CPU time the process
// used (see "Measuring on a shared VM" in README.md); the median of
// several is reported.
func processSetups(e env) ([]float64, error) {
	const runs = 31
	var out []float64
	for i := 0; i < runs; i++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(e.bin, "polyufc-bench"), "-exp", "tab1", "-size", "bench")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up run: %v: %s", err, stderr.String())
		}
		if !bytes.Contains(stdout.Bytes(), []byte("B^t_DRAM")) {
			return nil, fmt.Errorf("set-up run printed no roofline constants: %q", stdout.String())
		}
		out = append(out, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return out, nil
}

// nestsOf lists a module's affine nests in program order.
func nestsOf(mod *ir.Module) []*ir.Nest {
	var out []*ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// reportsByLabel indexes a compilation's per-nest reports.
func reportsByLabel(res *core.Result) map[string]core.KernelReport {
	out := map[string]core.KernelReport{}
	for _, r := range res.Reports {
		out[r.Label] = r
	}
	return out
}

// dominantReport is the report of the nest with the most flops, the one
// a Fig. 7 row shows.
func dominantReport(res *core.Result) core.KernelReport {
	var best core.KernelReport
	bestFlops := int64(-1)
	for _, r := range res.Reports {
		if r.CM != nil && r.CM.Flops > bestFlops {
			bestFlops, best = r.CM.Flops, r
		}
	}
	return best
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
