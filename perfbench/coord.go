package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/serve"
	"pgpub/internal/shard"
	"pgpub/internal/snapshot"
)

// The coord workload's fixed shape.
const (
	coordShards = 4
	apiKey      = "bench"
	// epsPerQuery is the key's price per answer; its ε_total cannot run out
	// within a run.
	epsPerQuery = 0.5
	budgets     = apiKey + " 1e12 0.5\n"
	coordReps   = 1000 // in-process calls per layer of the traced run
	dpReps      = 100000
)

// fleet is a sharded kd release served by coordShards shard servers over
// loopback behind one DP-mode coordinator.
type fleet struct {
	manifest string
	manCRC   uint32
	noise    int64
	maps     []*snapshot.Mapped
	shards   []*serve.Server
	hss      []*serve.HTTPServer
	urls     []string
	coordHS  *serve.HTTPServer
	url      string
}

// coordWorkload spends half the measured phase in the closed loop against
// the coordinator and the other half releasing.
func (r *run) coordWorkload() error {
	type fixture struct {
		d     *dataset.Table
		hiers []*hierarchy.Hierarchy
		fl    *fleet
		st    *Stream
	}
	setup := func() (*fixture, error) {
		d, hiers, err := r.microdata()
		if err != nil {
			return nil, err
		}
		fl, err := r.startFleet(d, hiers)
		if err != nil {
			return nil, err
		}
		st := NewStream(coordStream(r.subSeed(seedStream), d.Schema))
		if err := warmUp(fl.url, apiKey, st); err != nil {
			fl.close()
			return nil, err
		}
		return &fixture{d: d, hiers: hiers, fl: fl, st: st}, nil
	}
	teardown := func(f *fixture) { f.fl.close() }
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
		defer teardown(f)
		return r.coordTraced(f.fl, f.st)
	}
	res := r.coordLoop(f.fl, f.st, nil)
	size := int64(0)
	for s := 0; s < coordShards; s++ {
		info, err := os.Stat(shard.SnapshotPath(filepath.Join(r.workDir, "shard"), s))
		if err != nil {
			return err
		}
		size += info.Size()
	}
	teardown(f)
	r.setLoopMetrics(res)
	r.set("snapshot_mb", "MB", float64(size)/1e6)
	r.releasePhase(f.d, f.hiers, r.seconds/2)
	return nil
}

// startFleet publishes the sharded release, saves it with its manifest,
// starts one exact server per shard on its mapped snapshot, and starts the
// DP-mode coordinator over them.
func (r *run) startFleet(d *dataset.Table, hiers []*hierarchy.Hierarchy) (*fleet, error) {
	pubs, err := pg.PublishSharded(d, hiers, r.pgConfig(pg.KD), coordShards)
	if err != nil {
		return nil, err
	}
	g, err := guarantee(pubs[0])
	if err != nil {
		return nil, err
	}
	fl := &fleet{manifest: filepath.Join(r.workDir, "shard.pgman"), noise: r.subSeed(seedNoise)}
	man, err := shard.WriteRelease(fl.manifest, filepath.Join(r.workDir, "shard"), pubs, g, benchSeed, d.Len())
	if err != nil {
		return nil, err
	}
	if fl.manCRC, err = snapshot.FileCRC(fl.manifest); err != nil {
		return nil, err
	}
	for s := range man.Shards {
		path := man.ShardPath(fl.manifest, s)
		crc, err := snapshot.HeaderCRC(path)
		if err != nil {
			fl.close()
			return nil, err
		}
		m, err := snapshot.OpenMapped(path)
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.maps = append(fl.maps, m)
		srv, err := serve.New(serve.Config{
			Index: m.Index, CRC: crc,
			Meta: pg.Metadata{P: m.Pub.P, K: m.Pub.K, Algorithm: m.Pub.Algorithm.String(), Rows: m.Pub.Len(), Guarantee: m.Guarantee},
		})
		if err != nil {
			fl.close()
			return nil, err
		}
		hs, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.shards = append(fl.shards, srv)
		fl.hss = append(fl.hss, hs)
		fl.urls = append(fl.urls, "http://"+hs.Addr)
	}
	c, err := fl.newCoordinator(nil)
	if err != nil {
		fl.close()
		return nil, err
	}
	if fl.coordHS, err = c.Serve("127.0.0.1:0"); err != nil {
		fl.close()
		return nil, err
	}
	fl.url = "http://" + fl.coordHS.Addr + "/v1/query"
	return fl, nil
}

// newCoordinator builds and validates a DP-mode coordinator over the
// fleet's shard servers, with default hedging and a fresh budget ledger.
func (fl *fleet) newCoordinator(reg *obs.Registry) (*serve.Coordinator, error) {
	man, err := snapshot.LoadManifest(fl.manifest)
	if err != nil {
		return nil, err
	}
	ledger, err := dp.ParseBudgets(strings.NewReader(budgets))
	if err != nil {
		return nil, err
	}
	c, err := serve.NewCoordinator(serve.CoordConfig{
		Manifest: man, ShardURLs: fl.urls, Metrics: reg, CRC: fl.manCRC,
		DP: &serve.DPConfig{Ledger: ledger, Seed: fl.noise},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

func (fl *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if fl.coordHS != nil {
		fl.coordHS.Shutdown(ctx) //nolint:errcheck // a drain timeout leaves nothing to clean up
	}
	for _, hs := range fl.hss {
		hs.Shutdown(ctx) //nolint:errcheck // as above
	}
	for _, m := range fl.maps {
		m.Close()
	}
	fl.coordHS, fl.hss, fl.maps = nil, nil, nil
}

// coordLoop runs the measured closed loop against the coordinator and
// reproduces the sampled DP answers offline from shard.Group plus
// dp.Mechanism, as pgquery -manifest -dp-* does.
func (r *run) coordLoop(fl *fleet, st *Stream, tr *Tracer) *loopResult {
	res := closedLoop(context.Background(), loopConfig{
		url: fl.url, apiKey: apiKey, clients: runtime.NumCPU(), duration: r.seconds / 2,
		stream: st, sampleEvery: sampleEvery, tracer: tr,
	})
	r.addLoop(res)
	grp, err := shard.Open(fl.manifest)
	if err != nil {
		r.check(false, "opening the sharded release offline: %v", err)
		return res
	}
	schema := grp.Schema()
	m := dp.Mechanism{Seed: fl.noise, CRC: fl.manCRC}
	r.checkSamples(res.samples, func(s sample) (float64, error) {
		op := s.req.Query.Op
		q := s.req.Query.CountQuery(schema)
		a, err := answer(grp, op, q)
		if err != nil && op != "avg" {
			return 0, err
		}
		return dpNoised(m, schema, op, q, a)
	})
	return res
}

// dpNoised applies the Laplace mechanism to an exact merged answer the way
// the DP serving mode does: count and naive take Lap(1/ε), sum Lap(GS/ε),
// and avg splits ε between its noised sum and weight.
func dpNoised(m dp.Mechanism, schema *dataset.Schema, op string, q query.CountQuery, a answerParts) (float64, error) {
	qkey := serve.QueryKey(schema, op, q, nil)
	gs := float64(schema.SensitiveDomain() - 1)
	switch op {
	case "count", "naive":
		return a.est + m.Noise(apiKey, qkey, 0, 1/epsPerQuery), nil
	case "sum":
		return a.sum + m.Noise(apiKey, qkey, 0, gs/epsPerQuery), nil
	default:
		half := epsPerQuery / 2
		w := a.weight + m.Noise(apiKey, qkey, 1, 1/half)
		if w <= 0 {
			return 0, fmt.Errorf("region estimated empty under DP noise")
		}
		return (a.sum + m.Noise(apiKey, qkey, 0, gs/half)) / w, nil
	}
}

// coordTraced is the traced coord run: an untraced closed loop, a traced one
// through a second coordinator with the obs registry on, then in-process
// calls into the coordinator, one shard server, the shard group and dp.
func (r *run) coordTraced(fl *fleet, st *Stream) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := r.coordLoop(fl, st, nil)
	runtime.ReadMemStats(&after)
	r.set("alloc_kb_per_query.coord", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(base.attempted))

	reg := obs.NewRegistry()
	c, err := fl.newCoordinator(reg)
	if err != nil {
		return err
	}
	hs, err := c.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hs.Shutdown(context.Background()) //nolint:errcheck // nothing in flight by then
	traced := *fl
	traced.url = "http://" + hs.Addr + "/v1/query"
	res := r.coordLoop(&traced, st, r.tr)
	queries := float64(reg.Counter("coord.requests.query").Value())
	fired, won := float64(reg.Counter("coord.hedge.fired").Value()), float64(reg.Counter("coord.hedge.won").Value())
	r.set("coord.subrequests_per_query", "count", (coordShards*queries+fired)/queries)
	wonRatio := 0.0
	if fired > 0 {
		wonRatio = won / fired
	}
	r.set("coord.hedge.won_ratio", "ratio", wonRatio)
	r.set("trace.overhead_pct", "%", 100*(quantile(res.lat, 0.5)-quantile(base.lat, 0.5))/quantile(base.lat, 0.5))

	grp, err := shard.Open(fl.manifest)
	if err != nil {
		return err
	}
	schema := grp.Schema()
	coordH, shardH := c.Handler(), fl.shards[0].Handler()
	var coordT, shardT, groupT []int64
	for i := 0; i < coordReps; i++ {
		req := st.Next()
		id := r.tr.Begin("serve.Coordinator.ServeHTTP", -1, req.Index)
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req.Body))
		hr.Header.Set("X-API-Key", apiKey)
		coordH.ServeHTTP(rec, hr)
		r.tr.End(id)
		if _, err := decodeRecorded(rec); err != nil {
			r.check(false, "in-process coordinator: %v", err)
		}
		coordT = append(coordT, r.tr.Span(id).Dur())

		// The sub-request a shard receives: avg travels as sum.
		op := req.Query.Op
		if op == "avg" {
			op = "sum"
		}
		id = r.tr.Begin("serve.Handler.ServeHTTP", -1, req.Index)
		rec = httptest.NewRecorder()
		shardH.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req.Query.Body(op))))
		r.tr.End(id)
		if _, err := decodeRecorded(rec); err != nil {
			r.check(false, "in-process shard server: %v", err)
		}
		shardT = append(shardT, r.tr.Span(id).Dur())

		cq := req.Query.CountQuery(schema)
		id = r.tr.Begin("shard.Group", -1, req.Index)
		_, err := answer(grp, op, cq)
		r.tr.End(id)
		r.checkErr(err, "in-process shard group")
		groupT = append(groupT, r.tr.Span(id).Dur())
	}
	r.set("coord.handler_us", "us", median(coordT)/1e3)
	r.set("shard.handler_us", "us", median(shardT)/1e3)
	r.set("shard.group_us", "us", median(groupT)/1e3)
	r.set("coord.fanout_overhead_us", "us", (median(coordT)-median(groupT))/1e3)

	ledger, err := dp.ParseBudgets(strings.NewReader(budgets))
	if err != nil {
		return err
	}
	b := ledger.Key(apiKey)
	id := r.tr.Begin("dp.Ledger.Charge", -1, -1)
	for i := 0; i < dpReps; i++ {
		ledger.Charge(b, epsPerQuery)
	}
	r.tr.End(id)
	r.set("dp.charge_ns", "ns", float64(r.tr.Span(id).Dur())/dpReps)
	m := dp.Mechanism{Seed: fl.noise, CRC: fl.manCRC}
	qkey := serve.QueryKey(schema, "count", st.Next().Query.CountQuery(schema), nil)
	sink := 0.0
	id = r.tr.Begin("dp.Mechanism.Noise", -1, -1)
	for i := 0; i < dpReps; i++ {
		sink += m.Noise(apiKey, qkey, i, 1/epsPerQuery)
	}
	r.tr.End(id)
	r.set("dp.noise_ns", "ns", float64(r.tr.Span(id).Dur())/dpReps)
	if sink == 0 {
		r.check(false, "dp noise summed to exactly zero")
	}
	return nil
}
