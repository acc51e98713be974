package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/server"
)

// serveConns is the closed loop's client count: callers such as the CLI
// and job runners wait for each answer before sending the next.
const serveConns = 2

// extraBoots is how many daemons each round boots only to time set-up.
const extraBoots = 4

// servePlatformFiles are the JSON backends the daemon loads besides the
// embedded paper ones, relative to the checkout root.
var servePlatformFiles = []string{"platforms/2-socket-bdw.json", "platforms/wide-uncore.json"}

// serveWorkload boots a fresh polyufc-serve per round, as the README
// deploys it, and drives it in two phases: phase 1 sends every distinct
// request once (cold), phase 2 replays a seeded Zipf stream over the same
// set (warm). p50_ms and tail_ms describe phase 2's model-only answers,
// ops_per_s its requests per daemon CPU-second, setup_s the daemon's boot.
type serveWorkload struct {
	rng                 *rand.Rand
	modelOnly, measured []request
	// cold holds each model-only request's first answer: every later
	// answer, in any round, must be byte-identical to it.
	cold map[string][]byte
	// measuredAnswers holds one unflagged measured answer per kernel.
	measuredAnswers map[string]server.SearchResponse
	ref             *serveReference
}

func (w *serveWorkload) tailP() float64 { return 0.99 }

// answer is one request's outcome.
type answer struct {
	status int
	// body is nil when the answer was compared with a known one; same
	// reports that comparison.
	body       []byte
	same       bool
	start, end time.Time
	err        error
}

func (a answer) lat() time.Duration { return a.end.Sub(a.start) }

func newServeWorkload(rng *rand.Rand) *serveWorkload {
	return &serveWorkload{
		rng: rng, modelOnly: modelOnlyRequests(), measured: measuredRequests(),
		cold: map[string][]byte{}, measuredAnswers: map[string]server.SearchResponse{},
	}
}

func (w *serveWorkload) round(e env, rep, layers *report) (roundTimes, error) {
	var rt roundTimes
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return rt, err
	}
	defer os.RemoveAll(dir)
	// Boot times spread widely on a shared VM, so each round also boots a
	// few daemons that serve nothing, for the median.
	for i := 0; i < extraBoots; i++ {
		d, err := startDaemon(e, filepath.Join(dir, fmt.Sprintf("boot%d", i)))
		if err != nil {
			return rt, err
		}
		if err := d.stop(); err != nil {
			return rt, err
		}
		rt.setups = append(rt.setups, d.setup.Seconds())
	}
	d, err := startDaemon(e, filepath.Join(dir, "serve"))
	if err != nil {
		return rt, err
	}
	defer d.stop()
	rt.setups = append(rt.setups, d.setup.Seconds())

	// Phase 1, cold: the model-only set in seeded order over the closed
	// loop, then the measured set one at a time in kernel order, so the
	// drift watchdog sees the same residual sequence in every run.
	cold := append([]request(nil), w.modelOnly...)
	w.rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	var coldLat []float64
	for i, a := range d.closedLoop(cold, serveConns, w.cold) {
		w.modelOnlyAnswer(rep, cold[i], a, "cold")
		coldLat = append(coldLat, ms(a.lat()))
	}
	var measuredLat []float64
	for _, r := range w.measured {
		a := d.send(r)
		w.measuredAnswer(rep, r, a)
	}

	// Phase 2, warm. Throughput counts the daemon's CPU time, not the
	// wall time, see README.md.
	stream := warmStream(w.rng.Int63(), w.modelOnly, w.measured)
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return rt, err
	}
	answers := d.closedLoop(stream, serveConns, w.cold)
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return rt, err
	}
	rt.done, rt.busy = len(stream), cpu1-cpu0
	for i, a := range answers {
		if stream[i].body.Measure {
			w.measuredAnswer(rep, stream[i], a)
			measuredLat = append(measuredLat, ms(a.lat()))
			continue
		}
		w.modelOnlyAnswer(rep, stream[i], a, "warm")
		rt.ops = append(rt.ops, ms(a.lat()))
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve round: boot %.3f s wall %.3f s CPU, cold %d requests %.2f s, warm %d requests %.2f s wall %.2f s daemon CPU\n",
		d.bootWall.Seconds(), d.setup.Seconds(), len(cold)+len(w.measured), sum(coldLat)/1000/serveConns,
		len(stream), answers[len(answers)-1].end.Sub(answers[0].start).Seconds(), rt.busy.Seconds())
	st, err := d.statsz()
	if err != nil {
		return rt, err
	}
	rep.check(st.Rejected == 0, "serve: admission gate rejected %d requests under a %d-client closed loop", st.Rejected, serveConns)
	if err := d.stop(); err != nil {
		return rt, err
	}
	if layers != nil {
		layers.set("serve.cold_p50_ms", "ms", median(coldLat))
		layers.set("serve.measured_p50_ms", "ms", median(measuredLat))
		layers.set("serve.warm_p50_ms", "ms", median(rt.ops))
		warmP99, err := percentile(rt.ops, w.tailP())
		if err != nil {
			return rt, err
		}
		layers.set("serve.warm_p99_ms", "ms", warmP99)
		layers.set("ladder.computes", "count", float64(st.Journal.Appended))
		layers.set("ladder.journal_hits", "count", float64(st.Served-st.Journal.Appended))
		layers.set("compile_cache.hit_ratio", "ratio", ratio(st.CompileCache.Hits, st.CompileCache.Misses))
		layers.set("stage_cache.hit_ratio", "ratio", ratio(st.StageCache.Hits, st.StageCache.Misses))
		layers.set("gate.rejected", "count", float64(st.Rejected))
		layers.set("drift.degradations", "count", float64(st.Drift["WIDE"].Degradations))
		if err := w.traceLayers(e, rep, layers, stream, median(rt.ops)); err != nil {
			return rt, err
		}
	}
	return rt, nil
}

// modelOnlyAnswer counts and checks one model-only answer: it must be a
// 200, byte-identical to the first answer to the same request.
func (w *serveWorkload) modelOnlyAnswer(rep *report, r request, a answer, phase string) {
	rep.attempted++
	if a.err != nil || a.status != http.StatusOK {
		rep.failed++
		rep.check(false, "serve %s %s: status %d, error %v: %.200s", phase, r.key, a.status, a.err, a.body)
		return
	}
	if a.body != nil {
		w.cold[r.key] = a.body // the first answer to this request
	} else if !a.same {
		rep.check(false, "serve %s %s: answer differs from the first answer to the same request", phase, r.key)
	}
}

// measuredAnswer counts and checks one measured answer. An answer flagged
// calibration_degraded by this fault-free daemon is a failed operation;
// any other must carry positive, finite baseline and capped figures.
func (w *serveWorkload) measuredAnswer(rep *report, r request, a answer) {
	rep.attempted++
	var resp server.SearchResponse
	if a.err != nil || a.status != http.StatusOK {
		rep.failed++
		rep.check(false, "serve measured %s: status %d, error %v: %.200s", r.key, a.status, a.err, a.body)
		return
	}
	if err := json.Unmarshal(a.body, &resp); err != nil {
		rep.failed++
		rep.check(false, "serve measured %s: %v", r.key, err)
		return
	}
	if resp.CalibrationDegraded {
		rep.failed++
		return
	}
	m := resp.Measured
	if m == nil {
		rep.check(false, "serve measured %s: no measurement (%s)", r.key, resp.DegradedTo)
		return
	}
	rep.check(finitePositive(m.BaselineSeconds) && finitePositive(m.BaselineJoules) &&
		finitePositive(m.CappedSeconds) && finitePositive(m.CappedJoules),
		"serve measured %s: baseline %g s %g J, capped %g s %g J", r.key,
		m.BaselineSeconds, m.BaselineJoules, m.CappedSeconds, m.CappedJoules)
	w.measuredAnswers[r.body.Kernel] = resp
}

// daemon is one running polyufc-serve.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	// setup is the CPU time the daemon used from exec to its first 200
	// from /healthz, bootWall the wall time of the same stretch.
	setup, bootWall time.Duration
	// logDone closes once the daemon's stderr reaches EOF; log holds it.
	logDone chan struct{}
	logMu   sync.Mutex
	log     bytes.Buffer
	stopped bool
	stopErr error
}

// startDaemon boots polyufc-serve on a free loopback port with a fresh
// journal and content-addressed store under dir, and waits for the first
// 200 from /healthz.
func startDaemon(e env, dir string) (*daemon, error) {
	d := &daemon{logDone: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.bin, "polyufc-serve"),
		"-addr", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "serve.jsonl"),
		"-cas-dir", filepath.Join(dir, "cas"),
		"-platform-file", strings.Join(servePlatformFiles, ","),
		"-degrade", "best-effort")
	// A daemon must not outlive a benchmark that is killed mid-round.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		err := d.stop()
		return nil, fmt.Errorf("polyufc-serve exited before listening (%v): %s", err, d.logTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("polyufc-serve did not listen within 60 s: %s", d.logTail())
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("polyufc-serve /healthz not ready within 60 s: %v: %s", err, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
	d.bootWall = time.Since(start)
	if d.setup, err = procCPU(d.cmd.Process.Pid); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// procCPU is the CPU time a process's threads have run so far, summed
// from /proc/<pid>/task/*/schedstat (nanoseconds). The kernel leaves time
// the hypervisor stole from the VM out of it.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// stop sends SIGTERM, waits for the drain (killing the daemon after
// 30 s) and reports an unclean exit. It is idempotent.
func (d *daemon) stop() error {
	if d.stopped {
		return d.stopErr
	}
	d.stopped = true
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.logDone
	err := d.cmd.Wait()
	timer.Stop()
	if err != nil {
		d.stopErr = fmt.Errorf("polyufc-serve exit: %v: %s", err, d.logTail())
	}
	return d.stopErr
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	s := d.log.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// send posts one request and reads the whole answer.
func (d *daemon) send(r request) answer {
	t := time.Now()
	resp, err := d.client.Post(d.base+r.endpoint, "application/json", bytes.NewReader(r.payload))
	if err != nil {
		return answer{err: err, start: t, end: time.Now()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return answer{status: resp.StatusCode, body: body, start: t, end: time.Now(), err: err}
}

// closedLoop sends reqs over conns clients, each sending its next request
// only after the previous answer, and returns the answers in input order.
// A successful answer to a request already in known is compared with it
// there and its body dropped, so the client's heap stays small and its
// collector stays out of the measured latencies. known is only read.
func (d *daemon) closedLoop(reqs []request, conns int, known map[string][]byte) []answer {
	out := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				a := d.send(reqs[i])
				if first, ok := known[reqs[i].key]; ok && a.err == nil && a.status == http.StatusOK {
					a.same = bytes.Equal(first, a.body)
					a.body = nil
				}
				out[i] = a
			}
		}()
	}
	wg.Wait()
	return out
}

// statsz fetches the daemon's counters.
func (d *daemon) statsz() (server.Statsz, error) {
	var st server.Statsz
	resp, err := d.client.Get(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// finish checks every answer's caps against an in-process compilation
// of the same kernel with the same backend, objective, epsilon and cap
// level.
func (w *serveWorkload) finish(e env, rep *report) error {
	ref, err := w.reference()
	if err != nil {
		return err
	}
	for _, r := range w.modelOnly {
		body, ok := w.cold[r.key]
		if !ok || r.endpoint == "/v1/characterize" {
			continue // refused (already counted) or carries no caps
		}
		var resp struct {
			Nests []server.NestResponse `json:"nests"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			rep.check(false, "serve %s: %v", r.key, err)
			continue
		}
		checkCaps(rep, r.key, resp.Nests, ref.results[refKey(r.body)])
	}
	for kernel, resp := range w.measuredAnswers {
		r := w.measured[0].body
		r.Kernel = kernel
		checkCaps(rep, "measured "+kernel, resp.Nests, ref.results[refKey(r)])
	}
	return nil
}

// checkCaps compares the nests of an answer with the reference
// compilation's reports.
func checkCaps(rep *report, where string, nests []server.NestResponse, want *core.Result) {
	if want == nil {
		rep.check(false, "serve %s: no reference compilation", where)
		return
	}
	if len(nests) != len(want.Reports) {
		rep.check(false, "serve %s: %d nests, reference has %d", where, len(nests), len(want.Reports))
		return
	}
	for i, n := range nests {
		r := want.Reports[i]
		rep.check(n.Label == r.Label && n.CapGHz == r.CapGHz && n.Class == r.Class.String() && sameFloats(n.SocketCaps, r.SocketCaps),
			"serve %s: nest %s cap %g %s %v, reference %s cap %g %v %v", where,
			n.Label, n.CapGHz, n.Class, n.SocketCaps, r.Label, r.CapGHz, r.Class, r.SocketCaps)
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
