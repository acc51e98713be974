package main

import (
	"encoding/json"
	"math/rand"

	"polyufc/internal/server"
	"polyufc/internal/workloads"
)

// The serve workload's request set. Model-only requests go to the
// compile, characterize and search endpoints at bench size for every
// kernel on the two paper backends and the two-socket BDW, under two
// objectives. Measured requests are the README's example, a measured
// search at test size, sent to the synthetic wide backend only: the
// drift watchdog trips on healthy hardware (see README.md), and keeping
// measured traffic on one backend confines its flagged answers there.
var (
	servePlatforms  = []string{"bdw", "rpl", "2s-bdw"}
	serveObjectives = []string{"edp", "energy"}
	serveEndpoints  = []string{"/v1/compile", "/v1/characterize", "/v1/search"}
	measuredTarget  = "wide"
)

const (
	// warmRequests is phase 2's fixed request count per round.
	warmRequests = 20000
	// measuredEvery makes every 20th warm request a measured one.
	measuredEvery = 20
	// zipfS is the Zipf exponent of the warm key popularity (s > 1 as
	// math/rand requires); with ~666 keys the hottest takes ~12% of the
	// model-only stream.
	zipfS = 1.1
)

// request is one HTTP request of the serve workload.
type request struct {
	endpoint string
	body     server.Request
	// payload is body encoded once, and key identifies the request.
	payload []byte
	key     string
}

func newRequest(endpoint string, body server.Request) request {
	payload, err := json.Marshal(body)
	if err != nil {
		panic(err) // a fixed struct of strings and bools always encodes
	}
	return request{endpoint: endpoint, body: body, payload: payload, key: endpoint + " " + string(payload)}
}

// modelOnlyRequests lists every distinct model-only request in a fixed
// order: kernels x platforms x objectives x endpoints.
func modelOnlyRequests() []request {
	var out []request
	for _, k := range workloads.All() {
		for _, p := range servePlatforms {
			for _, obj := range serveObjectives {
				for _, ep := range serveEndpoints {
					out = append(out, newRequest(ep, server.Request{Kernel: k.Name, Platform: p, Size: "bench", Objective: obj}))
				}
			}
		}
	}
	return out
}

// measuredRequests lists the measured searches in kernel order.
func measuredRequests() []request {
	var out []request
	for _, k := range workloads.All() {
		out = append(out, newRequest("/v1/search", server.Request{
			Kernel: k.Name, Platform: measuredTarget, Size: "test", Objective: "edp", Measure: true,
		}))
	}
	return out
}

// warmStream is phase 2's request sequence, a pure function of seed:
// every measuredEvery-th request is measured, the rest model-only, each
// kind drawn by Zipf popularity over a seeded ranking of its set.
func warmStream(seed int64, modelOnly, measured []request) []request {
	rng := rand.New(rand.NewSource(seed))
	rankM := rng.Perm(len(modelOnly))
	rankX := rng.Perm(len(measured))
	zm := rand.NewZipf(rng, zipfS, 1, uint64(len(modelOnly)-1))
	zx := rand.NewZipf(rng, zipfS, 1, uint64(len(measured)-1))
	out := make([]request, warmRequests)
	for i := range out {
		if i%measuredEvery == measuredEvery-1 {
			out[i] = measured[rankX[zx.Uint64()]]
		} else {
			out[i] = modelOnly[rankM[zm.Uint64()]]
		}
	}
	return out
}
