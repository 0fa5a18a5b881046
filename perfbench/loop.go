package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
)

// answerer is the in-process answering surface shared by query.Index and
// shard.Group.
type answerer interface {
	Schema() *dataset.Schema
	Count(q query.CountQuery) (float64, error)
	Naive(q query.CountQuery) (float64, error)
	AvgParts(q query.CountQuery, value query.SensitiveValue) (sum, weight float64, err error)
}

// answer computes one query the way the server does: sum and avg resolve
// through AvgParts with each code valued as itself.
func answer(a answerer, op string, q query.CountQuery) (answerParts, error) {
	switch op {
	case "count":
		est, err := a.Count(q)
		return answerParts{est: est}, err
	case "naive":
		est, err := a.Naive(q)
		return answerParts{est: est}, err
	case "sum", "avg":
		sum, weight, err := a.AvgParts(q, func(code int32) float64 { return float64(code) })
		if err != nil {
			return answerParts{}, err
		}
		p := answerParts{est: sum, sum: sum, weight: weight}
		if op == "avg" {
			if weight == 0 {
				return p, fmt.Errorf("region estimated empty")
			}
			p.est = sum / weight
		}
		return p, nil
	default:
		return answerParts{}, fmt.Errorf("unknown op %q", op)
	}
}

// answerParts is an exact answer and, for sum and avg, its compose pair.
type answerParts struct {
	est, sum, weight float64
}

// queryResponse is the part of a /v1/query reply the benchmark reads.
type queryResponse struct {
	Estimate float64 `json:"estimate"`
	Source   string  `json:"source"`
}

// sample is one response kept for the correctness check.
type sample struct {
	req      Request
	estimate float64
	source   string
	release  string // X-PG-Release
}

// loopConfig is one closed-loop run: each client sends its next request
// only after the previous reply has been read.
type loopConfig struct {
	url      string
	apiKey   string
	clients  int
	duration time.Duration
	stream   *Stream
	// sampleEvery keeps every n-th request's reply for the correctness check.
	sampleEvery int64
	// onIndex, when set, is called with each request index before it is
	// sent (the serve workload triggers its reloads from it).
	onIndex func(i int64)
	tracer  *Tracer
}

// loopResult is what a closed loop measured.
type loopResult struct {
	// lat holds one round-trip time per attempted request, in ns; a failed
	// request counts as infinitely slow.
	lat []int64
	// done holds each request's completion time, in ns since the loop
	// started, in the order of lat.
	done              []int64
	attempted, failed int64
	elapsed           time.Duration
	steal             *stealSampler
	samples           []sample
	// traced holds, with a tracer, each request's span ID, path class and
	// reply source.
	traced []tracedReq
}

type tracedReq struct {
	span   int32
	class  int
	source string
}

// closedLoop drives the configured clients until the duration has passed.
func closedLoop(ctx context.Context, cfg loopConfig) *loopResult {
	runtime.GC() // set-up garbage is not the measured phase's to collect
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(cfg.duration)
	parts := make([]loopResult, cfg.clients)
	var wg sync.WaitGroup
	ss := startStealSampler()
	start := ss.start
	for c := range parts {
		wg.Add(1)
		go func(res *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := cfg.stream.Next()
				if cfg.onIndex != nil {
					cfg.onIndex(req.Index)
				}
				id := cfg.tracer.Begin("net.roundtrip", -1, req.Index)
				t0 := time.Now()
				resp, release, err := post(ctx, hc, cfg.url, cfg.apiKey, req.Body)
				d := int64(time.Since(t0))
				cfg.tracer.End(id)
				res.attempted++
				res.done = append(res.done, int64(time.Since(start)))
				if err != nil {
					res.failed++
					res.lat = append(res.lat, math.MaxInt64)
					fmt.Fprintf(os.Stderr, "perfbench: FAILED: request %d: %v\n", req.Index, err)
					continue
				}
				res.lat = append(res.lat, d)
				if cfg.tracer != nil {
					res.traced = append(res.traced, tracedReq{span: id, class: req.Query.Class, source: resp.Source})
				}
				if cfg.sampleEvery > 0 && req.Index%cfg.sampleEvery == 0 {
					res.samples = append(res.samples, sample{req: req, estimate: resp.Estimate, source: resp.Source, release: release})
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start), steal: ss}
	ss.finish()
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.done = append(out.done, p.done...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.samples = append(out.samples, p.samples...)
		out.traced = append(out.traced, p.traced...)
	}
	return out
}

// post sends one query and decodes the reply; anything but a decodable 200
// is an error.
func post(ctx context.Context, hc *http.Client, url, apiKey string, body []byte) (queryResponse, string, error) {
	var out queryResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return out, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return out, "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return out, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, "", fmt.Errorf("decoding reply: %w", err)
	}
	return out, resp.Header.Get("X-PG-Release"), nil
}

// window is the slice of a measured phase whose throughput and latency
// quantiles are taken on their own; a metric is the median over the quiet
// windows (quietMedian), so a burst of interference on the shared machine
// moves one window, not the result.
const window = time.Second

// setLoopMetrics records the query end-to-end metrics of a closed loop: the
// median over its quiet windows of completed requests per second and of the
// latency quantiles.
func (r *run) setLoopMetrics(res *loopResult) {
	n := int(res.elapsed / window)
	if n < 1 {
		n = 1
	}
	lat := make([][]int64, n)
	for i, d := range res.done {
		w := min(int(d/int64(window)), n-1)
		lat[w] = append(lat[w], res.lat[i])
	}
	var qps, p50, p99, steal []float64
	for w, l := range lat {
		from, to := time.Duration(w)*window, time.Duration(w+1)*window
		if w == n-1 {
			to = res.elapsed
		}
		qps = append(qps, float64(len(l))/(to-from).Seconds())
		p50 = append(p50, quantile(l, 0.5))
		p99 = append(p99, quantile(l, 0.99))
		steal = append(steal, res.steal.between(from, to))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d windows: qps %.0f, p50 %.0f µs, p99 %.0f µs, stolen %.3f\n",
		n, qps, scale(p50, 1e-3), scale(p99, 1e-3), steal)
	r.set("query_qps", "1/s", quietMedian(qps, steal))
	r.set("query_p50_us", "us", quietMedian(p50, steal)/1e3)
	r.set("query_p99_us", "us", quietMedian(p99, steal)/1e3)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// addLoop counts a loop's requests as operations.
func (r *run) addLoop(res *loopResult) {
	r.attempted += res.attempted
	r.failed += res.failed
}

// sameBits reports whether two answers are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
