package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/perturb"
	"pgpub/internal/pg"
	"pgpub/internal/query"
	"pgpub/internal/sampling"
	"pgpub/internal/snapshot"
)

// algs are the three Phase-2 algorithms every release round publishes with,
// named as in the metric names.
var algs = []struct {
	alg  pg.Algorithm
	name string
}{{pg.KD, "kd"}, {pg.TDS, "tds"}, {pg.FullDomain, "fulldomain"}}

// shot is one release: microdata in, snapshot bytes out.
type shot struct {
	pub            *pg.Published
	bytes          []byte
	publish, write time.Duration
}

// releaseShot publishes through pg.Publish and encodes through
// snapshot.Write into memory — the release path of pgpublish -snapshot,
// minus the disk.
func (r *run) releaseShot(d *dataset.Table, hiers []*hierarchy.Hierarchy, alg pg.Algorithm) (*shot, error) {
	t0 := time.Now()
	pub, err := pg.Publish(d, hiers, r.pgConfig(alg))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	b, err := encodeSnapshot(pub)
	if err != nil {
		return nil, err
	}
	return &shot{pub: pub, bytes: b, publish: t1.Sub(t0), write: time.Since(t1)}, nil
}

// encodeSnapshot certifies the guarantee and writes the snapshot bytes.
func encodeSnapshot(pub *pg.Published) ([]byte, error) {
	g, err := guarantee(pub)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, pub, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// releaseChecker verifies releases: each passes Validate, opens mapped and
// passes Verify, and has the same bytes every time its algorithm runs.
type releaseChecker struct {
	r       *run
	digests map[string][32]byte
}

func (c *releaseChecker) verify(name string, s *shot) {
	r := c.r
	r.checkErr(s.pub.Validate(), name+" release: Validate")
	sum := sha256.Sum256(s.bytes)
	if want, ok := c.digests[name]; ok {
		r.check(sum == want, "%s release: bytes differ from the first repetition", name)
	} else {
		c.digests[name] = sum
	}
	path := filepath.Join(r.workDir, name+".pgsnap")
	if err := os.WriteFile(path, s.bytes, 0o644); err != nil {
		r.check(false, "%s release: saving: %v", name, err)
		return
	}
	m, err := snapshot.OpenMapped(path)
	if err != nil {
		r.check(false, "%s release: OpenMapped: %v", name, err)
		return
	}
	r.checkErr(m.Verify(), name+" release: Verify")
	m.Close()
}

// publishWorkload spends the measured phase releasing the same microdata
// with each Phase-2 algorithm, then answers fresh kd-path queries
// in-process on the kd release.
func (r *run) publishWorkload() error {
	type inputs struct {
		d     *dataset.Table
		hiers []*hierarchy.Hierarchy
	}
	setup := func() (inputs, error) {
		d, hiers, err := r.microdata()
		return inputs{d, hiers}, err
	}
	var in inputs
	var err error
	if r.trace {
		in, err = setup()
	} else {
		in, err = timeSetup(r, setup, func(inputs) {})
	}
	if err != nil {
		return err
	}
	if r.trace {
		return r.publishTraced(in.d, in.hiers)
	}
	kd := r.releasePhase(in.d, in.hiers, r.seconds)
	r.set("snapshot_mb", "MB", float64(len(kd))/1e6)

	m, err := snapshot.OpenMapped(filepath.Join(r.workDir, "kd.pgsnap"))
	if err != nil {
		return err
	}
	defer m.Close()
	st := NewStream(kdStream(r.subSeed(seedStream), in.d.Schema))
	r.setLoopMetrics(r.answerPass(m.Index, st, answerPassLen))
	return nil
}

// answerPassLen is the length of the publish workload's in-process query
// pass.
const answerPassLen = 3 * time.Second

// answerPass answers stream requests in-process on one index for d, one
// at a time, and times each answer.
func (r *run) answerPass(ix answerer, st *Stream, d time.Duration) *loopResult {
	schema := ix.Schema()
	runtime.GC()
	ss := startStealSampler()
	res := &loopResult{steal: ss}
	start := ss.start
	for time.Since(start) < d {
		req := st.Next()
		cq := req.Query.CountQuery(schema)
		t0 := time.Now()
		_, err := answer(ix, req.Query.Op, cq)
		res.lat = append(res.lat, int64(time.Since(t0)))
		res.done = append(res.done, int64(time.Since(start)))
		r.checkErr(err, "in-process answer")
	}
	res.elapsed = time.Since(start)
	ss.finish()
	res.attempted = int64(len(res.lat))
	return res
}

// releaseMix is one round of the release phase: the cheap kd and tds
// releases run three times for each full-domain release, so every
// algorithm gets enough shots for a steady median.
var releaseMix = []pg.Algorithm{pg.KD, pg.TDS, pg.KD, pg.TDS, pg.KD, pg.TDS, pg.FullDomain}

// algName names an algorithm as in the metric names.
func algName(alg pg.Algorithm) string {
	for _, a := range algs {
		if a.alg == alg {
			return a.name
		}
	}
	return alg.String()
}

// releasePhase releases rounds of releaseMix until budget has passed (at
// least two rounds), checks every release, and records each algorithm's
// median release time over its quiet releases. It returns the kd snapshot
// bytes.
func (r *run) releasePhase(d *dataset.Table, hiers []*hierarchy.Hierarchy, budget time.Duration) []byte {
	chk := &releaseChecker{r: r, digests: make(map[string][32]byte)}
	times, steal := make(map[string][]float64), make(map[string][]float64)
	var kd []byte
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < budget; round++ {
		for _, alg := range releaseMix {
			name := algName(alg)
			runtime.GC() // each release starts from a collected heap
			m := markSteal()
			s, err := r.releaseShot(d, hiers, alg)
			if err != nil {
				r.check(false, "%s release: %v", name, err)
				continue
			}
			times[name] = append(times[name], (s.publish + s.write).Seconds())
			steal[name] = append(steal[name], stolen(m, markSteal()))
			chk.verify(name, s)
			if alg == pg.KD {
				kd = s.bytes
			}
		}
	}
	for _, a := range algs {
		fmt.Fprintf(os.Stderr, "perfbench: %s releases (s): %.3f, stolen %.3f\n", a.name, times[a.name], steal[a.name])
		r.set("release_"+a.name+"_s", "s", quietMedian(times[a.name], steal[a.name]))
	}
	return kd
}

// publishTraced is the traced publish run. Each round releases with every
// algorithm twice, back to back: once untraced through pg.Publish, once
// rebuilt from the public phase functions under spans. The rebuilt release
// must be byte-identical, which proves the spans time the same work.
func (r *run) publishTraced(d *dataset.Table, hiers []*hierarchy.Hierarchy) error {
	tr := r.tr
	chk := &releaseChecker{r: r, digests: make(map[string][32]byte)}
	reg := obs.NewRegistry()
	// roundSums adds up, over one round's algorithms, both sides of the
	// accounting comparisons and of the tracing overhead.
	type roundSums struct {
		publish, phases, write, tracedWrite, total, tracedTotal time.Duration
		steal                                                   float64
	}
	var rounds []roundSums
	allocMB, gcs := make(map[string][]float64), make(map[string][]float64)
	groups := make(map[string]float64)
	var kd *pg.Published
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < r.seconds; round++ {
		var rs roundSums
		for _, a := range algs {
			var (
				plain   *shot
				traced  tracedTimes
				tracedB []byte
			)
			// The pair alternates which side runs first, so neither always
			// inherits the other's garbage.
			for _, withSpans := range []bool{round%2 == 1, round%2 == 0} {
				runtime.GC()
				m := markSteal()
				if withSpans {
					pub, b, tt, ng, err := r.tracedRelease(d, hiers, a.alg, a.name, int64(round), reg)
					if err != nil {
						r.check(false, "%s traced release: %v", a.name, err)
						continue
					}
					tracedB, traced, groups[a.name] = b, tt, float64(ng)
					if a.alg == pg.KD {
						kd = pub
					}
				} else {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					s, err := r.releaseShot(d, hiers, a.alg)
					runtime.ReadMemStats(&after)
					if err != nil {
						r.check(false, "%s release: %v", a.name, err)
						continue
					}
					plain = s
					allocMB[a.name] = append(allocMB[a.name], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
					gcs[a.name] = append(gcs[a.name], float64(after.NumGC-before.NumGC))
					chk.verify(a.name, s)
				}
				rs.steal = max(rs.steal, stolen(m, markSteal()))
			}
			if plain == nil || tracedB == nil {
				continue
			}
			r.check(bytes.Equal(plain.bytes, tracedB), "%s traced release: bytes differ from pg.Publish + snapshot.Write", a.name)
			rs.publish += plain.publish
			rs.write += plain.write
			rs.total += plain.publish + plain.write
			rs.phases += traced.phases
			rs.tracedWrite += traced.write
			rs.tracedTotal += traced.total
		}
		rounds = append(rounds, rs)
	}

	// Per-layer metrics. Span names are the functions the spans wrap.
	r.set("perturb.phase1_ms", "ms", medianF(ms(tr.Durations("perturb.TableSharded"))))
	for _, a := range algs {
		n := a.name
		r.set("generalize.phase2_ms."+n, "ms", medianF(ms(tr.Durations("generalize."+phase2Func(a.alg)+"."+n))))
		r.set("sampling.phase3_ms."+n, "ms", medianF(ms(tr.Durations("sampling.StratifiedSeeded."+n))))
		build := ms(tr.Durations("query.NewIndex." + n))
		write := ms(tr.Durations("snapshot.Write." + n))
		encode := make([]float64, len(write))
		for i := range write {
			encode[i] = write[i] - build[i]
		}
		r.set("query.index_build_ms."+n, "ms", medianF(build))
		r.set("snapshot.encode_ms."+n, "ms", medianF(encode))
		r.set("alloc_mb."+n, "MB", medianF(allocMB[n]))
		r.set("gc.count."+n, "count", medianF(gcs[n]))
		r.set("pg.groups."+n, "count", groups[n])
	}
	fd := reg.Counter("generalize.lattice.nodes_evaluated").Value()
	r.set("generalize.lattice.nodes_evaluated", "count", float64(fd)/float64(len(tr.Durations("pg.phase2.fulldomain"))))

	// The accounting check. Within each traced release the three phase spans
	// must cover at least nine tenths of the rebuilt publish. Against the
	// untraced releases of the same round, phase 1+2+3 must match the
	// pg.Publish time and index build + encode the snapshot.Write time; the
	// ratios are quiet medians over rounds. Single full-domain releases on a
	// shared 2-CPU machine vary by about 7 %, so a miss by more than a tenth
	// is reported and a miss by more than a quarter fails the run.
	for _, s := range tr.Spans("pg.publish.") {
		phases := tr.ChildDur(s.ID, "pg.phase")
		r.check(float64(phases) >= 0.9*float64(s.Dur()), "%s: phase spans cover %.1f of %.1f ms", s.Name, float64(phases)/1e6, float64(s.Dur())/1e6)
	}
	var phaseR, writeR, overhead, steal []float64
	for _, rs := range rounds {
		if rs.publish == 0 {
			continue
		}
		phaseR = append(phaseR, float64(rs.phases)/float64(rs.publish))
		writeR = append(writeR, float64(rs.tracedWrite)/float64(rs.write))
		overhead = append(overhead, 100*float64(rs.tracedTotal-rs.total)/float64(rs.total))
		steal = append(steal, rs.steal)
	}
	if len(steal) == 0 {
		return fmt.Errorf("no round released with every algorithm")
	}
	fmt.Fprintf(os.Stderr, "perfbench: per round: phase/publish %.3f, (index build + encode)/write %.3f, overhead %.1f %%, stolen %.3f\n",
		phaseR, writeR, overhead, steal)
	for _, c := range []struct {
		name, what string
		ratio      float64
	}{
		{"trace.publish.phase_sum_ratio", "phase 1+2+3 against pg.Publish", quietMedian(phaseR, steal)},
		{"trace.publish.write_sum_ratio", "index build + encode against snapshot.Write", quietMedian(writeR, steal)},
	} {
		r.set(c.name, "ratio", c.ratio)
		if c.ratio < 0.9 || c.ratio > 1.1 {
			fmt.Fprintf(os.Stderr, "perfbench: accounting: %s = %.3f, off by more than a tenth\n", c.what, c.ratio)
		}
		r.check(c.ratio > 0.75 && c.ratio < 1.25, "accounting: %s = %.3f, off by more than a quarter", c.what, c.ratio)
	}
	r.set("trace.overhead_pct", "%", quietMedian(overhead, steal))

	if kd != nil {
		ix, err := query.NewIndex(kd)
		if err != nil {
			return err
		}
		r.answerLayer(ix, d.Schema)
	}
	return nil
}

// phase2Func names the Phase-2 entry point pg.Publish calls for alg.
func phase2Func(alg pg.Algorithm) string {
	switch alg {
	case pg.TDS:
		return "TDS"
	case pg.FullDomain:
		return "SearchFullDomain"
	default:
		return "KDPartitionParallel"
	}
}

// tracedRelease rebuilds pg.Publish from the public phase functions — the
// seed split, Phase 1, Phase 2, BoxOf, Phase 3 and row assembly, in the
// order and with the seeds pg.Publish uses — under spans, then times the
// serving index build and snapshot.Write on the result. It returns the
// publication, its snapshot bytes, its span times and its group count.
func (r *run) tracedRelease(d *dataset.Table, hiers []*hierarchy.Hierarchy, alg pg.Algorithm, name string, req int64, reg *obs.Registry) (*pg.Published, []byte, tracedTimes, int, error) {
	var tt tracedTimes
	tr := r.tr
	cfg := r.pgConfig(alg)
	workers := par.N(cfg.Workers)
	k := cfg.K

	rel := tr.Begin("release."+name, -1, req)
	sp := tr.Begin("pg.publish."+name, rel, req)
	phase1Root := par.SplitSeed(cfg.Seed, 0)
	phase3Root := par.SplitSeed(cfg.Seed, 1)

	s1 := tr.Begin("pg.phase1."+name, sp, req)
	pb, err := perturb.NewPerturber(cfg.P, d.Schema.SensitiveDomain())
	if err != nil {
		return nil, nil, tt, 0, err
	}
	c := tr.Begin("perturb.TableSharded", s1, req)
	dp, err := pb.TableSharded(d, phase1Root, workers)
	tr.End(c)
	tr.End(s1)
	if err != nil {
		return nil, nil, tt, 0, err
	}

	s2 := tr.Begin("pg.phase2."+name, sp, req)
	c = tr.Begin("generalize."+phase2Func(alg)+"."+name, s2, req)
	var (
		recoding  *generalize.Recoding
		boxes     []generalize.Box
		groupRows [][]int
		keys      [][]int32
	)
	switch alg {
	case pg.KD:
		res, err := generalize.KDPartitionParallel(dp, k, par.SpawnDepth(workers))
		if err != nil {
			return nil, nil, tt, 0, err
		}
		boxes, groupRows = res.Cells, res.Rows
	case pg.TDS:
		res, err := generalize.TDS(dp, hiers, generalize.TDSConfig{K: k, Workers: workers, Metrics: reg})
		if err != nil {
			return nil, nil, tt, 0, err
		}
		recoding, keys, groupRows = res.Recoding, res.Groups.Keys, res.Groups.Rows
	case pg.FullDomain:
		res, err := generalize.SearchFullDomain(dp, hiers, generalize.FullDomainConfig{
			Principle: generalize.KAnonymity{K: k}, Workers: workers, Metrics: reg,
		})
		if err != nil {
			return nil, nil, tt, 0, err
		}
		recoding, keys, groupRows = res.Recoding, res.Groups.Keys, res.Groups.Rows
	}
	tr.End(c)
	if recoding != nil {
		c = tr.Begin("generalize.BoxOf", s2, req)
		boxes = make([]generalize.Box, len(keys))
		par.ForEach(workers, len(keys), func(i int) { boxes[i] = recoding.BoxOf(keys[i]) })
		tr.End(c)
	}
	tr.End(s2)

	s3 := tr.Begin("pg.phase3."+name, sp, req)
	c = tr.Begin("sampling.StratifiedSeeded."+name, s3, req)
	strata, err := sampling.StratifiedSeeded(groupRows, phase3Root, workers)
	tr.End(c)
	if err != nil {
		return nil, nil, tt, 0, err
	}
	c = tr.Begin("pg.assemble", s3, req)
	pub := &pg.Published{Schema: d.Schema, Algorithm: alg, Recoding: recoding, P: cfg.P, K: k}
	for _, st := range strata {
		pub.Rows = append(pub.Rows, pg.Row{
			Box: boxes[st.Group], Value: dp.Sensitive(st.Row), G: st.GroupSize, SourceRow: st.Row,
		})
	}
	tr.End(c)
	tr.End(s3)
	tr.End(sp)

	c = tr.Begin("snapshot.Write."+name, rel, req)
	b, err := encodeSnapshot(pub)
	tr.End(c)
	tr.End(rel)
	if err != nil {
		return nil, nil, tt, 0, err
	}
	tt.phases = time.Duration(tr.Span(s1).Dur() + tr.Span(s2).Dur() + tr.Span(s3).Dur())
	tt.write = time.Duration(tr.Span(c).Dur())
	tt.total = time.Duration(tr.Span(rel).Dur())

	// snapshot.Write builds the serving index inside; timing the same build
	// on its own splits Write into index build and encode.
	c = tr.Begin("query.NewIndex."+name, -1, req)
	_, err = query.NewIndex(pub)
	tr.End(c)
	if err != nil {
		return nil, nil, tt, 0, err
	}
	return pub, b, tt, len(groupRows), nil
}

// tracedTimes are a traced release's phase 1+2+3, snapshot.Write and whole
// release times.
type tracedTimes struct{ phases, write, total time.Duration }

// ms converts nanosecond durations to milliseconds.
func ms(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
