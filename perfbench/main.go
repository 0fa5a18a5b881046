// Command perfbench is the repository benchmark: it runs one workload of
// the publish-then-query system on inputs generated from a seed, checks the
// program's outputs, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload publish|serve|coord --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics a user of the
// system sees (release time, snapshot size, query throughput and latency,
// set-up time, peak memory). With --trace 1 it carries the per-layer
// metrics, taken from spans the benchmark records around its calls into
// each module, plus the tracing overhead against an untraced pass in the
// same process. README.md beside this file records why each workload
// exists and how the numbers were chosen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// The publication every workload starts from: SAL microdata of n rows,
// published with group floor k and retention probability p. The table and
// the pipeline seed are pgpublish's defaults and do not follow --seed: TDS
// alone took 0.13 s on one generated table and 0.23 s on another, so a
// per-seed table would make release times measure the data, not the code.
// --seed drives every other input: request streams, churn deltas and DP
// noise.
const (
	benchN    = 100_000
	benchK    = 6
	benchP    = 0.3
	benchSeed = 42
	// lambda and rho1 certify the guarantee block stamped into every
	// snapshot, as pgpublish does by default.
	lambda = 0.1
	rho1   = 0.2
	// A run performs its set-up at least setupReps times and until
	// setupFloor has passed (at most setupMax times); setup_s is the median.
	setupReps  = 3
	setupFloor = time.Second
	setupMax   = 50
)

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
	tr       *Tracer // nil unless --trace 1

	attempted, failed int64
	metrics           map[string]Metric
}

// check counts one operation and whether it failed; failures are logged.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// checkErr is check for an operation that returned an error.
func (r *run) checkErr(err error, what string) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	r.check(true, "")
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// subSeed derives an independent seed for one input of the run.
func (r *run) subSeed(stream int) int64 { return par.SplitSeed(r.seed, stream) }

// Seed streams of the inputs --seed generates.
const (
	seedStream = iota + 1
	seedDelta
	seedNoise
	seedSample
)

// microdata generates the SAL table and its hierarchies.
func (r *run) microdata() (*dataset.Table, []*hierarchy.Hierarchy, error) {
	d, err := sal.Generate(benchN, benchSeed)
	if err != nil {
		return nil, nil, err
	}
	return d, sal.Hierarchies(d.Schema), nil
}

// pgConfig is the publication configuration of every release.
func (r *run) pgConfig(alg pg.Algorithm) pg.Config {
	return pg.Config{K: benchK, P: benchP, Algorithm: alg, Seed: benchSeed}
}

// guarantee certifies the guarantee block stamped into a snapshot.
func guarantee(pub *pg.Published) (*pg.GuaranteeMetadata, error) {
	r2, dl, err := pub.Guarantees(lambda, rho1)
	if err != nil {
		return nil, err
	}
	return &pg.GuaranteeMetadata{Lambda: lambda, Rho1: rho1, Rho2: r2, Delta: dl}, nil
}

// timeSetup performs set-up repeatedly, tearing down all but the last, and
// records the median over the quiet set-ups as setup_s.
func timeSetup[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var (
		last         T
		times, steal []float64
	)
	start := time.Now()
	for i := 0; i < setupReps || (time.Since(start) < setupFloor && i < setupMax); i++ {
		if i > 0 {
			teardown(last)
			runtime.GC()
		}
		m := markSteal()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		steal = append(steal, stolen(m, markSteal()))
		last = v
	}
	r.set("setup_s", "s", quietMedian(times, steal))
	return last, nil
}

// peakRSS reads the process's high-water resident set size (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

func main() {
	workload := flag.String("workload", "", "publish, serve or coord")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: make(map[string]Metric),
	}
	if r.trace {
		r.tr = NewTracer()
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d n=%d k=%d p=%v nproc=%d gomaxprocs=%d go=%s\n",
		r.workload, r.seed, *seconds, *trace, benchN, benchK, benchP, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	work := filepath.Join(".bench_build", "work")
	err := os.MkdirAll(work, 0o755)
	if err == nil {
		r.workDir, err = os.MkdirTemp(work, r.workload+"-")
	}
	if err == nil {
		err = r.dispatch()
		os.RemoveAll(r.workDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.tr.Summary(os.Stderr)
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	if !r.trace {
		rss, err := peakRSS()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.set("peak_rss_mb", "MB", rss)
	}
	metrics, err := r.reported()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := Result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(out.Bytes())
	if !res.Correct {
		os.Exit(1)
	}
}

// dispatch runs the selected workload.
func (r *run) dispatch() error {
	switch r.workload {
	case "publish":
		return r.publishWorkload()
	case "serve":
		return r.serveWorkload()
	case "coord":
		return r.coordWorkload()
	default:
		return fmt.Errorf("unknown workload %q (want publish, serve or coord)", r.workload)
	}
}
