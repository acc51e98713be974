package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"polyufc/internal/cas"
	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/journal"
	"polyufc/internal/model"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/server"
	"polyufc/internal/workloads"
)

// serveReference holds in-process compilations of every distinct
// (kernel, platform, size, objective) the serve workload asks for, with
// the daemon's defaults: epsilon 1e-3, linalg caps, pluto tiling,
// best-effort degradation.
type serveReference struct {
	targets map[string]*roofline.Target
	results map[string]*core.Result
}

func refKey(b server.Request) string {
	return b.Kernel + "/" + b.Platform + "/" + b.Size + "/" + b.Objective
}

func (w *serveWorkload) reference() (*serveReference, error) {
	if w.ref != nil {
		return w.ref, nil
	}
	for _, f := range servePlatformFiles {
		if _, err := platform.LoadFile(f); err != nil {
			return nil, err
		}
	}
	ref := &serveReference{targets: map[string]*roofline.Target{}, results: map[string]*core.Result{}}
	for _, name := range append(append([]string(nil), servePlatforms...), measuredTarget) {
		b, err := platform.Lookup(name)
		if err != nil {
			return nil, err
		}
		t, err := roofline.Resolve(b)
		if err != nil {
			return nil, err
		}
		ref.targets[name] = t
	}
	var stages pipeline.Cache
	for _, r := range append(append([]request(nil), w.modelOnly...), w.measured...) {
		key := refKey(r.body)
		if _, ok := ref.results[key]; ok {
			continue
		}
		k, err := workloads.ByName(r.body.Kernel)
		if err != nil {
			return nil, err
		}
		size := workloads.Bench
		if r.body.Size == "test" {
			size = workloads.Test
		}
		mod, err := k.Build(size)
		if err != nil {
			return nil, err
		}
		obj, ok := search.ParseObjective(r.body.Objective)
		if !ok {
			return nil, fmt.Errorf("objective %q", r.body.Objective)
		}
		cfg := core.DefaultConfig(ref.targets[r.body.Platform])
		cfg.Search.Objective = obj
		cfg.Search.Epsilon = 1e-3
		cfg.Degrade = core.BestEffort
		res, err := core.CompilePipeline(context.Background(), mod, cfg, core.PipelineOptions{Stages: &stages})
		if err != nil {
			return nil, fmt.Errorf("reference compile %s: %w", key, err)
		}
		ref.results[key] = res
	}
	w.ref = ref
	return ref, nil
}

// traceLayers times the serve path's layers in process, on the round's
// own requests and answers: the daemon's HTTP handler without the
// network, JSON decoding and encoding of the served response types, the
// response journal, the content-addressed store, the cap search, and the
// breaker-guarded run of a measured request.
func (w *serveWorkload) traceLayers(e env, rep, layers *report, stream []request, warmP50ms float64) error {
	dir, err := os.MkdirTemp(e.work, "serve-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The handler, fed through an httptest recorder: prime every
	// model-only key cold, then replay the round's warm model-only stream.
	cfg := server.DefaultConfig()
	cfg.Concurrency = serveConns
	cfg.Degrade = core.BestEffort
	cfg.JournalPath = filepath.Join(dir, "serve.jsonl")
	cfg.CASDir = filepath.Join(dir, "cas")
	cfg.PlatformFiles = servePlatformFiles
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	serveOne := func(r request) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, r.endpoint, bytes.NewReader(r.payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, r := range w.modelOnly {
		rec := serveOne(r)
		rep.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), w.cold[r.key]),
			"serve in-process %s: status %d, answer differs from the daemon's", r.key, rec.Code)
	}
	var handler []float64
	mem := startMem()
	for _, r := range stream {
		if r.body.Measure {
			continue
		}
		t := time.Now()
		serveOne(r)
		handler = append(handler, float64(time.Since(t))/float64(time.Microsecond))
	}
	alloc, _ := mem.since()
	if err := srv.Close(); err != nil {
		return err
	}
	handlerUS := median(handler)
	layers.set("server.handler_us", "us", handlerUS)
	layers.set("http.loopback_us", "us", warmP50ms*1000-handlerUS)
	layers.set("go.alloc_kb_per_req", "KB", float64(alloc)/1024/float64(len(handler)))

	// JSON, journal and CAS over the distinct model-only answers.
	jr, err := journal.Open(filepath.Join(dir, "probe.jsonl"))
	if err != nil {
		return err
	}
	defer jr.Close()
	store, err := cas.Open(filepath.Join(dir, "probe-cas"), nil)
	if err != nil {
		return err
	}
	var dec, enc, rec, get, put, casGet []float64
	for _, r := range w.modelOnly {
		body := w.cold[r.key]
		v := responseValue(r.endpoint)
		t := time.Now()
		err := json.Unmarshal(body, v)
		dec = append(dec, us(time.Since(t)))
		if err != nil {
			return fmt.Errorf("decode %s: %w", r.key, err)
		}
		var buf bytes.Buffer
		t = time.Now()
		je := json.NewEncoder(&buf)
		je.SetIndent("", "  ")
		err = je.Encode(v)
		enc = append(enc, us(time.Since(t)))
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(buf.Bytes(), body), "serve %s: re-encoding the decoded answer changes its bytes", r.key)

		t = time.Now()
		err = jr.Record(r.key, v)
		rec = append(rec, ms(time.Since(t)))
		if err != nil {
			return err
		}
		back := responseValue(r.endpoint)
		t = time.Now()
		ok, err := jr.Get(r.key, back)
		get = append(get, us(time.Since(t)))
		rep.check(err == nil && ok, "journal get %s: %v %v", r.key, ok, err)

		sum := sha256.Sum256([]byte(r.key))
		ck := hex.EncodeToString(sum[:])
		t = time.Now()
		err = store.Put(ck, body)
		put = append(put, ms(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		payload, ok := store.Get(ck)
		casGet = append(casGet, us(time.Since(t)))
		rep.check(ok && bytes.Equal(payload, body), "cas get %s: payload differs", r.key)
	}
	layers.set("json.decode_us", "us", median(dec))
	layers.set("json.encode_us", "us", median(enc))
	layers.set("journal.record_ms", "ms", median(rec))
	layers.set("journal.get_us", "us", median(get))
	layers.set("cas.put_ms", "ms", median(put))
	layers.set("cas.get_us", "us", median(casGet))

	ref, err := w.reference()
	if err != nil {
		return err
	}
	// The cap search on the reference compilations' fitted models, for
	// the single-socket paper backends: it must pick the compile's cap.
	var searchUS []float64
	for _, r := range w.modelOnly {
		if r.endpoint != "/v1/search" || (r.body.Platform != "bdw" && r.body.Platform != "rpl") {
			continue
		}
		t := ref.targets[r.body.Platform]
		obj, _ := search.ParseObjective(r.body.Objective)
		opts := search.Options{Objective: obj, Epsilon: 1e-3}
		for _, kr := range ref.results[refKey(r.body)].Reports {
			if kr.CM == nil {
				continue
			}
			m := model.New(t.Constants, model.FromCacheModel(kr.CM, kr.Threads))
			start := time.Now()
			sres, err := search.Run(context.Background(), m, t.Platform.UncoreSteps(), opts)
			searchUS = append(searchUS, us(time.Since(start)))
			rep.check(err == nil && sres.BestGHz == kr.CapGHz, "search %s nest %s: %g GHz (%v), compile chose %g",
				refKey(r.body), kr.Label, sres.BestGHz, err, kr.CapGHz)
		}
	}
	layers.set("search.run_us", "us", median(searchUS))

	// A measured request's capped run through the breaker, on profiles
	// already simulated, as the daemon serves a repeat.
	var runUS []float64
	for _, r := range w.measured {
		t := ref.targets[measuredTarget]
		res := ref.results[refKey(r.body)]
		p := t.Platform
		b := hw.NewCapBreaker(hw.NewCapController(hw.NewMachine(p), hw.DefaultCapControllerOptions(p)), hw.DefaultBreakerOptions())
		if _, err := b.RunFunc(res.Module.Funcs[0]); err != nil {
			return fmt.Errorf("run %s: %w", r.key, err)
		}
		const reps = 20
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := b.RunFunc(res.Module.Funcs[0]); err != nil {
				return fmt.Errorf("run %s: %w", r.key, err)
			}
		}
		runUS = append(runUS, us(time.Since(start))/reps)
	}
	layers.set("hw.runfunc_us", "us", median(runUS))
	return nil
}

// responseValue returns a fresh value of the response type an endpoint
// serves.
func responseValue(endpoint string) any {
	switch endpoint {
	case "/v1/compile":
		return &server.CompileResponse{}
	case "/v1/characterize":
		return &server.CharacterizeResponse{}
	}
	return &server.SearchResponse{}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
