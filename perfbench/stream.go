package main

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"sync"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
)

// This file is the seeded request-stream generator. A stream is a pure
// function of its StreamConfig: request i has the same bytes on every run
// with the same seed, whichever client goroutine happens to send it.

// Path classes of a query: how many QI attributes it restricts decides
// which index path answers it. 1–2 restricted attributes take the O(1)
// interval grid, 3–8 take the kd walk.
const (
	classGrid = iota
	classKD
	numClasses
)

var classNames = [numClasses]string{"grid", "kd"}

// ops and opShares are the request op mix: counts dominate, as in the
// analyst workloads the query engine serves.
var (
	ops      = [...]string{"count", "naive", "sum", "avg"}
	opShares = [...]float64{0.7, 0.1, 0.1, 0.1}
)

// The hot set: hotQueries fixed queries drawn with Zipf(zipfS) skew. They
// fit the server's 4096-entry result cache.
const (
	hotQueries = 1024
	zipfS      = 1.1
)

// bandShare is the width of a count/naive sensitive band, as a share of the
// sensitive domain. sum and avg carry no mask: the engine rejects one.
const bandShare = 0.4

// Query is one aggregate request in engine-neutral form.
type Query struct {
	Op    string
	Class int
	// Dims lists the restricted QI attributes in ascending order; Lo and Hi
	// are their inclusive code ranges.
	Dims   []int
	Lo, Hi []int32
	// BandLo..BandHi is the sensitive band of a count or naive query;
	// BandHi < BandLo means no mask.
	BandLo, BandHi int32
}

// key is the query's identity: two queries with equal keys are the same
// question to the server.
func (q *Query) key() string {
	b := make([]byte, 0, 64)
	b = append(b, q.Op...)
	for i, d := range q.Dims {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.Lo[i]))
		b = binary.LittleEndian.AppendUint32(b, uint32(q.Hi[i]))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(q.BandLo))
	b = binary.LittleEndian.AppendUint32(b, uint32(q.BandHi))
	return string(b)
}

// Body renders the /v1/query request body under the given op (a
// coordinator rewrites avg to sum on its sub-requests).
func (q *Query) Body(op string) []byte {
	b := make([]byte, 0, 160)
	b = append(b, `{"op":"`...)
	b = append(b, op...)
	b = append(b, `","where":[`...)
	for i, d := range q.Dims {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"dim":`...)
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, `,"lo":`...)
		b = strconv.AppendInt(b, int64(q.Lo[i]), 10)
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(q.Hi[i]), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	if q.BandHi >= q.BandLo {
		b = append(b, `,"sensitive":[`...)
		for y := q.BandLo; y <= q.BandHi; y++ {
			if y > q.BandLo {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(y), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// CountQuery is the engine form of the query over the given schema — the
// same CountQuery the server parses the body into.
func (q *Query) CountQuery(s *dataset.Schema) query.CountQuery {
	cq := query.CountQuery{QI: make([]query.Range, s.D())}
	for j, a := range s.QI {
		cq.QI[j] = query.Range{Lo: 0, Hi: int32(a.Size() - 1)}
	}
	for i, d := range q.Dims {
		cq.QI[d] = query.Range{Lo: q.Lo[i], Hi: q.Hi[i]}
	}
	if q.BandHi >= q.BandLo {
		cq.Sensitive = make([]bool, s.SensitiveDomain())
		for y := q.BandLo; y <= q.BandHi; y++ {
			cq.Sensitive[y] = true
		}
	}
	return cq
}

// Request is one element of a stream.
type Request struct {
	Index int64
	Hot   bool
	Query *Query
	Body  []byte
}

// StreamConfig fixes a stream.
type StreamConfig struct {
	Seed int64
	// Sizes are the QI domain sizes; Domain is the sensitive domain size.
	Sizes  []int
	Domain int
	// HotShare of the requests are draws from the hot set; the rest are
	// fresh queries never seen before in the stream.
	HotShare float64
	// GridShare of the fresh queries (and of the hot set's Zipf mass)
	// restrict 1–2 attributes; the rest restrict 3–8.
	GridShare float64
}

// serveStream is the serve workload's mix: half hot, half fresh; half
// grid, half kd.
func serveStream(seed int64, s *dataset.Schema) StreamConfig {
	return StreamConfig{
		Seed: seed, Sizes: qiSizes(s), Domain: s.SensitiveDomain(),
		HotShare: 0.5, GridShare: 0.5,
	}
}

// coordStream is the coord workload's mix: every query fresh and on the
// grid path, so index and cache do almost nothing and fan-out dominates.
func coordStream(seed int64, s *dataset.Schema) StreamConfig {
	return StreamConfig{
		Seed: seed, Sizes: qiSizes(s), Domain: s.SensitiveDomain(),
		GridShare: 1,
	}
}

// kdStream is fresh kd-path queries only: the in-process query pass of the
// publish workload, whose answer times have one mode.
func kdStream(seed int64, s *dataset.Schema) StreamConfig {
	return StreamConfig{Seed: seed, Sizes: qiSizes(s), Domain: s.SensitiveDomain()}
}

func qiSizes(s *dataset.Schema) []int {
	sizes := make([]int, s.D())
	for j, a := range s.QI {
		sizes[j] = a.Size()
	}
	return sizes
}

// Stream draws requests in a fixed order. Next is safe for concurrent use.
type Stream struct {
	cfg StreamConfig

	mu   sync.Mutex
	rng  splitmix
	next int64
	hot  []Request
	cdf  []float64 // cumulative Zipf mass over hot ranks
	seen map[string]struct{}
}

// NewStream builds the stream, including its hot set.
func NewStream(cfg StreamConfig) *Stream {
	st := &Stream{cfg: cfg, rng: splitmix(cfg.Seed), seen: make(map[string]struct{})}
	if cfg.HotShare == 0 {
		return st
	}
	st.cdf = make([]float64, hotQueries)
	mass := make([]float64, hotQueries)
	total := 0.0
	for r := range mass {
		mass[r] = math.Pow(float64(r+1), -zipfS)
		total += mass[r]
	}
	acc := 0.0
	for r := range mass {
		mass[r] /= total
		acc += mass[r]
		st.cdf[r] = acc
	}
	st.cdf[len(st.cdf)-1] = 1
	// Assign each hot rank the (class, op) cell furthest below its target
	// share of the Zipf mass handed out so far, so hot draws follow the
	// stream's class and op mix even though a few ranks carry most draws.
	var assigned [numClasses][len(ops)]float64
	handed := 0.0
	for r := range mass {
		handed += mass[r]
		bc, bo, best := 0, 0, math.Inf(-1)
		for c := 0; c < numClasses; c++ {
			for o := range ops {
				if deficit := st.cellShare(c, o)*handed - assigned[c][o]; deficit > best {
					bc, bo, best = c, o, deficit
				}
			}
		}
		assigned[bc][bo] += mass[r]
		q := st.fresh(bc, bo)
		st.hot = append(st.hot, Request{Index: -1, Hot: true, Query: q, Body: q.Body(q.Op)})
	}
	return st
}

// cellShare is the target share of (class, op).
func (st *Stream) cellShare(class, op int) float64 {
	cs := st.cfg.GridShare
	if class == classKD {
		cs = 1 - cs
	}
	return cs * opShares[op]
}

// Drawn reports how many requests the stream has produced.
func (st *Stream) Drawn() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.next
}

// Next returns the stream's next request.
func (st *Stream) Next() Request {
	st.mu.Lock()
	defer st.mu.Unlock()
	i := st.next
	st.next++
	if st.cfg.HotShare > 0 && st.rng.float() < st.cfg.HotShare {
		r := sort.SearchFloat64s(st.cdf, st.rng.float())
		if r >= len(st.hot) {
			r = len(st.hot) - 1
		}
		req := st.hot[r]
		req.Index = i
		return req
	}
	class := classKD
	if st.rng.float() < st.cfg.GridShare {
		class = classGrid
	}
	op := len(ops) - 1
	u, acc := st.rng.float(), 0.0
	for o, sh := range opShares {
		if acc += sh; u < acc {
			op = o
			break
		}
	}
	q := st.fresh(class, op)
	return Request{Index: i, Query: q, Body: q.Body(q.Op)}
}

// fresh draws a query of the given class and op that the stream has never
// produced before. Callers hold mu (or own the stream exclusively).
func (st *Stream) fresh(class, op int) *Query {
	for {
		q := st.draw(class, op)
		k := q.key()
		if _, dup := st.seen[k]; dup {
			continue
		}
		st.seen[k] = struct{}{}
		return q
	}
}

// draw builds a random query: 1–2 (grid) or 3–8 (kd) restricted
// attributes, each range covering a quarter to three quarters of its
// domain, so regions are never empty and the kd walk meets many boxes
// straddling the boundary.
func (st *Stream) draw(class, op int) *Query {
	d := len(st.cfg.Sizes)
	nd := 1 + st.rng.intn(2)
	if class == classKD {
		nd = 3 + st.rng.intn(d-2)
	}
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < nd; i++ {
		j := i + st.rng.intn(d-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	dims := perm[:nd]
	sort.Ints(dims)
	q := &Query{Op: ops[op], Class: class, Dims: dims, Lo: make([]int32, nd), Hi: make([]int32, nd), BandLo: 0, BandHi: -1}
	for i, dim := range dims {
		size := st.cfg.Sizes[dim]
		minW, maxW := (size+3)/4, size*3/4
		if maxW >= size {
			maxW = size - 1
		}
		if maxW < 1 {
			maxW = 1
		}
		if minW > maxW {
			minW = maxW
		}
		w := minW + st.rng.intn(maxW-minW+1)
		lo := st.rng.intn(size - w + 1)
		q.Lo[i], q.Hi[i] = int32(lo), int32(lo+w-1)
	}
	if q.Op == "count" || q.Op == "naive" {
		w := int(math.Round(bandShare * float64(st.cfg.Domain)))
		lo := st.rng.intn(st.cfg.Domain - w + 1)
		q.BandLo, q.BandHi = int32(lo), int32(lo+w-1)
	}
	return q
}

// splitmix is the splitmix64 generator: tiny state, cheap draws, and a
// fixed sequence per seed.
type splitmix uint64

func (s *splitmix) uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0,1).
func (s *splitmix) float() float64 { return float64(s.uint64()>>11) / (1 << 53) }

// intn returns a draw in [0,n); the modulo bias is below 2⁻⁵⁰ for the small
// n used here.
func (s *splitmix) intn(n int) int { return int(s.uint64() % uint64(n)) }
