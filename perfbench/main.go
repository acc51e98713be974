// Command perfbench is PolyUFC's end-to-end benchmark. It runs one of
// three workloads for a fixed time, checks the program's outputs against
// independent computations, and prints one JSON result line:
//
//	sweep    cold Fig. 7 sweep rows (compile, exact-simulator profile,
//	         baseline and capped runs) on the two paper backends
//	compile  cold compiles of every kernel under pluto and auto tiling
//	serve    the polyufc-serve daemon under a closed loop of HTTP clients
//
// With -trace 1 it instead times the calls into each layer's public
// functions and prints the per-layer metrics; -digest prints every exact
// count and selected cap of the benchmark's inputs for diffing two
// commits. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// env is what every workload needs from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// bin holds the polyufc-serve and polyufc-bench binaries built from
	// this checkout; work is a scratch directory inside the checkout.
	bin, work string
	// probe, when set, samples the host's speed between in-process
	// operations (see hostprobe.go).
	probe *hostProbe
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	// problems are failed correctness checks; any makes the run incorrect.
	problems []string
	metrics  map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// check records a correctness problem unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// workload is one of the benchmark's three traffic mixes. A workload
// value lives for one run: it keeps what its rounds produced for the
// whole-run checks of finish.
type workload interface {
	// round runs one whole round of the workload's operations, counting
	// them and checking their outputs into rep. With a non-nil layers it
	// also times the calls into each layer the round reaches and records
	// the per-layer metrics there.
	round(e env, rep, layers *report) (roundTimes, error)
	// finish compares the run's outputs against independent
	// computations, after the timed rounds.
	finish(e env, rep *report) error
	// tailP is the percentile tail_ms reports: the highest with at least
	// ten samples beyond it in every run. 0 means the workload has fewer
	// than forty operations per run and reports its median there.
	tailP() float64
}

// roundTimes is what one round contributes to the end-to-end metrics.
// ops_per_s and tail_ms pool the run's rounds: all operations over all
// busy time, and the tail percentile of all operation times (or, for a
// workload without a tail, the median of the rounds' medians).
type roundTimes struct {
	// ops are the times in ms of the operations p50_ms and tail_ms
	// describe; done operations (of every kind) kept the working process
	// busy for busy CPU time. See README.md for why sweep and compile
	// time their operations in CPU time.
	ops  []float64
	done int
	busy time.Duration
	// setups are set-up CPU times in seconds measured inside the round.
	setups []float64
}

// workloadNames lists the workloads in the order traced runs probe them.
var workloadNames = []string{"sweep", "compile", "serve"}

// newWorkload makes a workload's inputs from the seed, outside any timing.
func newWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "sweep":
		return &sweepWorkload{rng: rng}, nil
	case "compile":
		return newCompileWorkload(rng)
	case "serve":
		return newServeWorkload(rng), nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want one of %v)", name, workloadNames)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sweep, compile or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 25, "how long to measure; whole rounds always run")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		digest  = flag.Bool("digest", false, "print every exact count and selected cap of the inputs, one per line, and exit")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding polyufc-serve and polyufc-bench")
		work    = flag.String("work", ".bench_build/work", "scratch directory for daemon state")
	)
	flag.Parse()
	// Every operation this process runs is serial (one sweep row, one
	// compile, one closed-loop client at a time per connection), so it
	// needs one P. A second one buys nothing but stop-the-world handshakes
	// with the other vCPU, which hypervisor steal turned into wall-time
	// swings of 2x between runs of the same compiles on a 2-vCPU VM; with
	// one P they varied by under 5%. The daemon keeps its own default.
	runtime.GOMAXPROCS(1)
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: *work}
	if *digest {
		if err := printDigest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloadNames, *name) {
		fatal(fmt.Errorf("unknown -workload %q (want one of %v)", *name, workloadNames))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(e, *name)
	} else {
		rep, err = runMeasured(e, *name)
	}
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runMeasured runs whole rounds of the workload until the run time is
// spent and reports the end-to-end metrics.
func runMeasured(e env, name string) (*report, error) {
	w, err := newWorkload(name, e.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var setups []float64
	if name != "serve" {
		// sweep and compile run their operations in this process, between
		// which the probe samples the host's speed. serve's times are the
		// daemon's and the network's, and stay as measured.
		if e.probe, err = newHostProbe(); err != nil {
			return nil, err
		}
		// The daemon's set-up is its boot, timed inside every serve round;
		// sweep and compile pay theirs in a fresh process (below).
		s, err := processSetups(e)
		if err != nil {
			return nil, err
		}
		setups = s
	}
	var ops, roundMedians []float64
	var done int
	var busy time.Duration
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < e.seconds; round++ {
		rt, err := w.round(e, rep, nil)
		if err != nil {
			return nil, err
		}
		ops = append(ops, rt.ops...)
		done += rt.done
		busy += rt.busy
		roundMedians = append(roundMedians, median(rt.ops))
		setups = append(setups, rt.setups...)
	}
	if err := w.finish(e, rep); err != nil {
		return nil, err
	}
	tail := median(roundMedians)
	if p := w.tailP(); p > 0 {
		if tail, err = percentile(ops, p); err != nil {
			return nil, fmt.Errorf("%s tail: %w", name, err)
		}
	}
	f := e.probe.factor()
	rep.set("ops_per_s", "ops/s", float64(done)/busy.Seconds()/f)
	rep.set("p50_ms", "ms", median(ops)*f)
	rep.set("tail_ms", "ms", tail*f)
	rep.set("setup_s", "s", median(setups)*f)
	if e.probe != nil {
		fmt.Fprintf(os.Stderr, "perfbench: host probe: %d samples, median %.4g ms, times scaled by %.4g; as measured: ops_per_s %.4g, p50_ms %.4g, tail_ms %.4g, setup_s %.4g\n",
			len(e.probe.samples), median(e.probe.samples), f, float64(done)/busy.Seconds(), median(ops), tail, median(setups))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations timed in %d rounds; set-ups %d; pooled quantiles ms:",
		name, len(ops), len(roundMedians), len(setups))
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if v, err := percentile(ops, q); err == nil {
			fmt.Fprintf(os.Stderr, " p%g=%.4g", 100*q, v)
		}
	}
	fmt.Fprintln(os.Stderr)
	return rep, nil
}

// runTraced times one untraced round of the named workload, then one
// traced round of every workload, so that every per-layer metric is
// measured on the inputs of the workload whose layers it describes.
// attempted and failed count the named workload's two rounds only; the
// other rounds are layer probes whose outputs are still checked.
func runTraced(e env, name string) (*report, error) {
	rep := newReport()
	layers := newReport()
	named, err := newWorkload(name, e.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := named.round(e, rep, nil); err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	for _, wn := range workloadNames {
		w, count := named, rep
		if wn != name {
			if w, err = newWorkload(wn, e.seed); err != nil {
				return nil, err
			}
			count = newReport()
		}
		start := time.Now()
		if _, err := w.round(e, count, layers); err != nil {
			return nil, err
		}
		if wn == name {
			traced := time.Since(start)
			layers.set("trace.overhead_pct", "%", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())
		}
		if err := w.finish(e, count); err != nil {
			return nil, err
		}
		if count != rep {
			rep.problems = append(rep.problems, count.problems...)
		}
	}
	rep.metrics = layers.metrics
	rep.problems = append(rep.problems, layers.problems...)
	return rep, nil
}

// memDelta measures the Go heap traffic of a stretch of work.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// since returns the bytes allocated and GC cycles completed since start.
func (d *memDelta) since() (allocBytes uint64, gcCycles uint32) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.TotalAlloc - d.start.TotalAlloc, now.NumGC - d.start.NumGC
}

// finitePositive reports whether x is a finite positive number.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }

// settleHeap collects garbage before an in-process operation is timed,
// so every operation starts from the same small heap. Otherwise the
// collector's pacing carries over from the previous operation, and the
// process's peak resident set swung between 17 and 28 MB across runs of
// the same compiles, depending only on where in a transient spike the
// heap target happened to land.
func settleHeap() { runtime.GC() }

// selfCPU is the CPU time this process's threads have run so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
