package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
	"pgpub/internal/serve"
	"pgpub/internal/snapshot"
)

// The serve workload's fixed shape.
const (
	chainReleases = 4    // releases of the re-publication chain
	churnRows     = 500  // rows deleted and rows inserted per release: 1 % churn
	warmRequests  = 2000 // requests sent before the measured phase
	sampleEvery   = 50   // every n-th reply is checked bit for bit
	handlerReps   = 3000 // in-process handler calls of the traced run
	answerReps    = 2000 // in-process index answers of the traced run
)

// reloadAt are the request positions, counted from the start of the
// measured phase, at which the server hot-swaps to the next release.
var reloadAt = []int64{8000, 16000, 24000}

// serveWorkload spends half the measured phase in the closed loop against
// one server over loopback, hot-swapping through a re-publication chain,
// and the other half releasing, so it reports every end-to-end metric.
func (r *run) serveWorkload() error {
	type fixture struct {
		d     *dataset.Table
		hiers []*hierarchy.Hierarchy
		paths []string
		sv    *serving
		st    *Stream
	}
	setup := func() (*fixture, error) {
		d, hiers, err := r.microdata()
		if err != nil {
			return nil, err
		}
		paths, err := r.buildChain(d, hiers)
		if err != nil {
			return nil, err
		}
		f := &fixture{d: d, hiers: hiers, paths: paths}
		if f.sv, f.st, err = r.startServing(paths, nil); err != nil {
			return nil, err
		}
		return f, nil
	}
	teardown := func(f *fixture) { f.sv.close() }
	var (
		f   *fixture
		err error
	)
	if r.trace {
		f, err = setup()
	} else {
		f, err = timeSetup(r, setup, teardown)
	}
	if err != nil {
		return err
	}

	if r.trace {
		return r.serveTraced(f.paths, f.sv, f.st)
	}
	res := r.serveLoop(f.sv, f.st, nil)
	teardown(f)
	r.setLoopMetrics(res)
	info, err := os.Stat(f.paths[0])
	if err != nil {
		return err
	}
	r.set("snapshot_mb", "MB", float64(info.Size())/1e6)
	r.releasePhase(f.d, f.hiers, r.seconds/2)
	return nil
}

// buildChain publishes the kd re-publication chain r0..r3 — each release
// deleting and inserting churnRows rows — and saves each release with its
// chain block, as pgpublish -base/-delta does.
func (r *run) buildChain(d *dataset.Table, hiers []*hierarchy.Hierarchy) ([]string, error) {
	ch := pg.NewChain(d, hiers)
	cfg := r.pgConfig(pg.KD)
	rng := splitmix(r.subSeed(seedDelta))
	var (
		paths  []string
		parent uint32
	)
	for rel := 0; rel < chainReleases; rel++ {
		var dl pg.Delta
		if rel > 0 {
			var err error
			if dl, err = churnDelta(ch.Table(), &rng); err != nil {
				return nil, err
			}
		}
		pub, err := pg.Republish(ch, dl, cfg)
		if err != nil {
			return nil, err
		}
		g, err := guarantee(pub)
		if err != nil {
			return nil, err
		}
		inserts := 0
		if dl.Inserts != nil {
			inserts = dl.Inserts.Len()
		}
		chain, err := repub.ChainMetadataFor(rel, parent, inserts, len(dl.Deletes), ch.Table().Len(),
			pub.P, lambda, pub.K, d.Schema.SensitiveDomain())
		if err != nil {
			return nil, err
		}
		path := filepath.Join(r.workDir, fmt.Sprintf("release-%d.pgsnap", rel))
		if err := snapshot.SaveRelease(path, pub, g, chain); err != nil {
			return nil, err
		}
		if parent, err = snapshot.HeaderCRC(path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// churnDelta deletes churnRows distinct random rows and inserts churnRows
// freshly generated ones.
func churnDelta(t *dataset.Table, rng *splitmix) (pg.Delta, error) {
	seen := make(map[int]bool, churnRows)
	var dl pg.Delta
	for len(dl.Deletes) < churnRows {
		i := rng.intn(t.Len())
		if !seen[i] {
			seen[i] = true
			dl.Deletes = append(dl.Deletes, i)
		}
	}
	gen, err := sal.Generate(churnRows, int64(rng.uint64()>>1))
	if err != nil {
		return dl, err
	}
	dl.Inserts = dataset.NewTable(t.Schema)
	for i := 0; i < gen.Len(); i++ {
		if err := dl.Inserts.Append(gen.Row(i)); err != nil {
			return dl, err
		}
	}
	return dl, nil
}

// serving is one serve.Server over loopback on a release chain. Its Source
// opens the chain's next release mapped, as pgserve -mmap does.
type serving struct {
	paths []string
	reg   *obs.Registry
	srv   *serve.Server
	hs    *serve.HTTPServer
	url   string

	mu    sync.Mutex
	next  int
	maps  []*snapshot.Mapped
	byCRC map[string]*query.Index // X-PG-Release → that release's index
}

// startServing opens release 0 mapped, starts a server on it and warms it
// up with the first warmRequests requests of the serve stream, which it
// returns for the measured phase to continue.
func (r *run) startServing(paths []string, reg *obs.Registry) (*serving, *Stream, error) {
	sv := &serving{paths: paths, reg: reg, byCRC: make(map[string]*query.Index)}
	rd, err := sv.open(0)
	if err != nil {
		return nil, nil, err
	}
	sv.srv, err = serve.New(serve.Config{
		Index: rd.Index, Meta: rd.Meta, CRC: rd.CRC, Chain: rd.Chain,
		Source: sv.source, Metrics: reg,
	})
	if err != nil {
		sv.close()
		return nil, nil, err
	}
	if sv.hs, err = sv.srv.Serve("127.0.0.1:0"); err != nil {
		sv.close()
		return nil, nil, err
	}
	sv.url = "http://" + sv.hs.Addr + "/v1/query"
	st := NewStream(serveStream(r.subSeed(seedStream), rd.Index.Schema()))
	if err := warmUp(sv.url, "", st); err != nil {
		sv.close()
		return nil, nil, err
	}
	return sv, st, nil
}

// warmUp sends the stream's first warmRequests requests, so the cache holds
// the hot set and lazy set-up has finished before timing.
func warmUp(url, apiKey string, st *Stream) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for i := 0; i < warmRequests; i++ {
		if _, _, err := post(context.Background(), hc, url, apiKey, st.Next().Body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// open maps release i and registers its index under its release identity.
func (sv *serving) open(i int) (*serve.ReleaseData, error) {
	crc, err := snapshot.HeaderCRC(sv.paths[i])
	if err != nil {
		return nil, err
	}
	m, err := snapshot.OpenMappedObserved(sv.paths[i], sv.reg)
	if err != nil {
		return nil, err
	}
	sv.mu.Lock()
	sv.maps = append(sv.maps, m)
	sv.byCRC[fmt.Sprintf("%08x", crc)] = m.Index
	sv.mu.Unlock()
	pub := m.Pub
	return &serve.ReleaseData{
		Index: m.Index,
		Meta: pg.Metadata{P: pub.P, K: pub.K, Algorithm: pub.Algorithm.String(), Rows: pub.Len(),
			Guarantee: m.Guarantee},
		CRC: crc, Chain: m.Chain,
	}, nil
}

// source is the server's Config.Source: the chain's next release.
func (sv *serving) source() (*serve.ReleaseData, error) {
	sv.mu.Lock()
	sv.next++
	i := sv.next
	sv.mu.Unlock()
	if i >= len(sv.paths) {
		return nil, fmt.Errorf("no release after %d", i-1)
	}
	return sv.open(i)
}

// index returns the index of the release named by an X-PG-Release value.
func (sv *serving) index(release string) *query.Index {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.byCRC[release]
}

func (sv *serving) close() {
	if sv.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sv.hs.Shutdown(ctx) //nolint:errcheck // a drain timeout leaves nothing to clean up
		cancel()
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, m := range sv.maps {
		m.Close()
	}
	sv.maps = nil
}

// serveLoop runs the measured closed loop with reloads at reloadAt and
// checks the sampled replies and the reloads.
func (r *run) serveLoop(sv *serving, st *Stream, tr *Tracer) *loopResult {
	base := st.Drawn() // the measured phase continues the stream after warm-up
	reloads := make(chan int64, len(reloadAt))
	var (
		wg      sync.WaitGroup
		reloadN int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range reloads {
			id := tr.Begin("serve.Reload", -1, -1)
			res, err := sv.srv.Reload()
			tr.End(id)
			reloadN++
			if err != nil {
				r.check(false, "reload %d: %v", reloadN, err)
				continue
			}
			r.check(res.Release == reloadN, "reload %d swapped to release %d", reloadN, res.Release)
		}
	}()
	res := closedLoop(context.Background(), loopConfig{
		url: sv.url, clients: runtime.NumCPU(), duration: r.seconds / 2, stream: st,
		sampleEvery: sampleEvery, tracer: tr,
		onIndex: func(i int64) {
			for _, at := range reloadAt {
				if i == base+at {
					reloads <- i
				}
			}
		},
	})
	close(reloads)
	wg.Wait()
	r.addLoop(res)
	r.check(reloadN == len(reloadAt), "%d of %d reloads reached in the measured phase", reloadN, len(reloadAt))
	r.checkSamples(res.samples, func(s sample) (float64, error) {
		ix := sv.index(s.release)
		if ix == nil {
			return 0, fmt.Errorf("reply names unknown release %q", s.release)
		}
		a, err := answer(ix, s.req.Query.Op, s.req.Query.CountQuery(ix.Schema()))
		return a.est, err
	})
	return res
}

// checkSamples compares every sampled reply bit for bit with the expected
// answer and requires the sample to cover every op and path class.
func (r *run) checkSamples(samples []sample, want func(sample) (float64, error)) {
	covered := make(map[string]bool)
	for _, s := range samples {
		exp, err := want(s)
		if err != nil {
			r.check(false, "request %d: expected answer: %v", s.req.Index, err)
			continue
		}
		r.check(sameBits(exp, s.estimate), "request %d (%s, %s, %s): served %v, in-process %v",
			s.req.Index, s.req.Query.Op, classNames[s.req.Query.Class], s.source, s.estimate, exp)
		covered[s.req.Query.Op+"/"+classNames[s.req.Query.Class]] = true
	}
	wantClasses := map[string]bool{}
	for _, s := range samples {
		wantClasses[classNames[s.req.Query.Class]] = true
	}
	for _, op := range ops {
		for c := range wantClasses {
			r.check(covered[op+"/"+c], "no sampled reply covers %s on the %s path", op, c)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d sampled replies checked bit for bit\n", len(samples))
}

// serveTraced is the traced serve run: an untraced closed loop, then a
// traced one on a fresh server with the obs registry on, then in-process
// calls into the handler and the index.
func (r *run) serveTraced(paths []string, plain *serving, st *Stream) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := r.serveLoop(plain, st, nil)
	runtime.ReadMemStats(&after)
	plain.close()
	r.set("alloc_kb_per_query.serve", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(base.attempted))

	reg := obs.NewRegistry()
	sv, st, err := r.startServing(paths, reg)
	if err != nil {
		return err
	}
	defer sv.close()
	hits0, miss0 := reg.Counter("serve.cache.hits").Value(), reg.Counter("serve.cache.misses").Value()
	evict0 := reg.Counter("serve.cache.evictions").Value()
	paths0 := pathCounts(reg)
	res := r.serveLoop(sv, st, r.tr)
	hits, miss := reg.Counter("serve.cache.hits").Value()-hits0, reg.Counter("serve.cache.misses").Value()-miss0
	r.set("serve.cache.hit_ratio", "ratio", float64(hits)/float64(hits+miss))
	r.set("serve.cache.evictions", "count", float64(reg.Counter("serve.cache.evictions").Value()-evict0))
	pc := pathCounts(reg)
	total := 0.0
	for i := range pc {
		pc[i] -= paths0[i]
		total += pc[i]
	}
	for i, name := range pathNames {
		r.set("query.path_share."+name, "ratio", pc[i]/total)
	}
	r.set("serve.reload_ms", "ms", medianF(ms(r.tr.Durations("serve.Reload"))))

	// Client round trips by reply source and path class.
	byKind := make(map[string][]int64)
	for _, t := range res.traced {
		byKind[replyKind(t.source, t.class)] = append(byKind[replyKind(t.source, t.class)], r.tr.Span(t.span).Dur())
	}
	for _, k := range replyKinds {
		r.set("net.roundtrip_us."+k, "us", median(byKind[k])/1e3)
	}
	r.set("trace.overhead_pct", "%", 100*(quantile(res.lat, 0.5)-quantile(base.lat, 0.5))/quantile(base.lat, 0.5))

	// The handler in-process, no socket: the round trip minus this is the
	// network's share.
	h := sv.srv.Handler()
	byKind = make(map[string][]int64)
	for i := 0; i < handlerReps; i++ {
		req := st.Next()
		id := r.tr.Begin("serve.Handler.ServeHTTP", -1, req.Index)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req.Body)))
		r.tr.End(id)
		resp, err := decodeRecorded(rec)
		if err != nil {
			r.check(false, "in-process handler: %v", err)
			continue
		}
		k := replyKind(resp.Source, req.Query.Class)
		byKind[k] = append(byKind[k], r.tr.Span(id).Dur())
	}
	for _, k := range replyKinds {
		r.set("serve.handler_us."+k, "us", median(byKind[k])/1e3)
	}
	sv.mu.Lock()
	last := sv.maps[len(sv.maps)-1].Index
	sv.mu.Unlock()
	r.answerLayer(last, last.Schema())
	return nil
}

// replyKinds split serve latencies: cache hits, and computed answers by
// index path class.
var replyKinds = []string{"hit", "computed-grid", "computed-kd"}

func replyKind(source string, class int) string {
	if source == "cache" {
		return "hit"
	}
	return "computed-" + classNames[class]
}

// pathNames are the query.answered.* counters, one per index answer path.
var pathNames = []string{"grid", "exact_reanswer", "kd"}

func pathCounts(reg *obs.Registry) []float64 {
	out := make([]float64, len(pathNames))
	for i, n := range pathNames {
		out[i] = float64(reg.Counter("query.answered." + n).Value())
	}
	return out
}

// decodeRecorded reads an in-process handler reply.
func decodeRecorded(rec *httptest.ResponseRecorder) (queryResponse, error) {
	var out queryResponse
	if rec.Code != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return out, json.Unmarshal(rec.Body.Bytes(), &out)
}

// answerLayer times direct calls on an index for fresh queries of both
// path classes.
func (r *run) answerLayer(ix answerer, schema *dataset.Schema) {
	cfg := serveStream(r.subSeed(seedSample), schema)
	cfg.HotShare = 0
	st := NewStream(cfg)
	by := make([][]int64, numClasses)
	for i := 0; i < answerReps; i++ {
		req := st.Next()
		cq := req.Query.CountQuery(schema)
		id := r.tr.Begin("query.answer."+classNames[req.Query.Class], -1, req.Index)
		_, err := answer(ix, req.Query.Op, cq)
		r.tr.End(id)
		r.checkErr(err, "in-process answer")
		by[req.Query.Class] = append(by[req.Query.Class], r.tr.Span(id).Dur())
	}
	for c, name := range classNames {
		r.set("query.answer_us."+name, "us", median(by[c])/1e3)
	}
}
