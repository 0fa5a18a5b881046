package main

import (
	"bytes"
	"math"
	"testing"

	"pgpub/internal/sal"
)

const streamN = 40000

func draw(t *testing.T, cfg StreamConfig, n int) []Request {
	t.Helper()
	st := NewStream(cfg)
	out := make([]Request, n)
	for i := range out {
		out[i] = st.Next()
	}
	return out
}

func TestStreamSameSeedSameBytes(t *testing.T) {
	schema := sal.Schema()
	for name, mk := range map[string]func(int64) StreamConfig{
		"serve": func(seed int64) StreamConfig { return serveStream(seed, schema) },
		"coord": func(seed int64) StreamConfig { return coordStream(seed, schema) },
	} {
		a, b := draw(t, mk(7), 5000), draw(t, mk(7), 5000)
		c := draw(t, mk(8), 5000)
		differ := 0
		for i := range a {
			if a[i].Index != int64(i) || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", name, i)
			}
			if !bytes.Equal(a[i].Body, c[i].Body) {
				differ++
			}
		}
		if differ < len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d requests", name, len(a)-differ, len(a))
		}
	}
}

// shares tallies the stream's hot share, grid share and op mix.
func shares(reqs []Request) (hot, grid float64, op map[string]float64) {
	op = make(map[string]float64)
	for _, r := range reqs {
		if r.Hot {
			hot++
		}
		if r.Query.Class == classGrid {
			grid++
		}
		op[r.Query.Op]++
	}
	n := float64(len(reqs))
	for k := range op {
		op[k] /= n
	}
	return hot / n, grid / n, op
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s share %.4f, want %.2f ± %.2f", what, got, want, tol)
	}
}

func TestServeStreamShares(t *testing.T) {
	reqs := draw(t, serveStream(11, sal.Schema()), streamN)
	hot, grid, op := shares(reqs)
	near(t, "hot", hot, 0.5, 0.02)
	near(t, "grid", grid, 0.5, 0.03)
	for i, name := range ops {
		near(t, name, op[name], opShares[i], 0.02)
	}
	// The fresh half alone follows the class and op mix too.
	var fresh []Request
	hotKeys := make(map[string]bool)
	for _, r := range reqs {
		if r.Hot {
			hotKeys[r.Query.key()] = true
		} else {
			fresh = append(fresh, r)
		}
	}
	if len(hotKeys) > hotQueries {
		t.Errorf("%d distinct hot queries, want at most %d", len(hotKeys), hotQueries)
	}
	_, grid, op = shares(fresh)
	near(t, "fresh grid", grid, 0.5, 0.02)
	near(t, "fresh count", op["count"], 0.7, 0.02)
	seen := make(map[string]bool)
	for _, r := range fresh {
		k := r.Query.key()
		if seen[k] || hotKeys[k] {
			t.Fatalf("fresh request %d repeats an earlier query", r.Index)
		}
		seen[k] = true
	}
}

func TestCoordStreamFreshGridOnly(t *testing.T) {
	reqs := draw(t, coordStream(3, sal.Schema()), streamN)
	seen := make(map[string]bool)
	for _, r := range reqs {
		if r.Hot {
			t.Fatalf("request %d is hot", r.Index)
		}
		if n := len(r.Query.Dims); n < 1 || n > 2 {
			t.Fatalf("request %d restricts %d attributes", r.Index, n)
		}
		k := string(r.Body)
		if seen[k] {
			t.Fatalf("request %d repeats an earlier query", r.Index)
		}
		seen[k] = true
	}
	_, grid, op := shares(reqs)
	near(t, "grid", grid, 1, 0)
	for i, name := range ops {
		near(t, name, op[name], opShares[i], 0.02)
	}
}

func TestQueryShapes(t *testing.T) {
	schema := sal.Schema()
	for _, r := range draw(t, serveStream(5, schema), 5000) {
		q := r.Query
		lo, hi := 1, 2
		if q.Class == classKD {
			lo, hi = 3, schema.D()
		}
		if n := len(q.Dims); n < lo || n > hi {
			t.Fatalf("request %d (%s) restricts %d attributes", r.Index, classNames[q.Class], n)
		}
		masked := q.BandHi >= q.BandLo
		if wantMask := q.Op == "count" || q.Op == "naive"; masked != wantMask {
			t.Fatalf("request %d: op %s with mask %v", r.Index, q.Op, masked)
		}
		cq := q.CountQuery(schema)
		restricted := 0
		for j, rg := range cq.QI {
			if rg.Lo < 0 || int(rg.Hi) >= schema.QI[j].Size() || rg.Lo > rg.Hi {
				t.Fatalf("request %d: range %d = %v out of domain", r.Index, j, rg)
			}
			if rg.Lo > 0 || int(rg.Hi) < schema.QI[j].Size()-1 {
				restricted++
			}
		}
		if restricted != len(q.Dims) {
			t.Fatalf("request %d: %d restricted ranges for %d dims", r.Index, restricted, len(q.Dims))
		}
	}
}
