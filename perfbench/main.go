// Command perfbench is the repository's end-to-end benchmark. Each run
// boots dfserve as a child process on a loopback port, provisions
// monitors, drives them for a fixed time with the seeded generator in
// internal/loadgen, checks every response and the final monitor reports
// against references computed in process, and prints one JSON result
// as the last line of standard output. Build and run it through the
// wrapper, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: latency of
// the workload's primary request and the set-up time. With --trace 1 it
// carries per-layer numbers, measured in process on the run's inputs by
// timing calls into each library layer from this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	fairness "repro"
	"repro/internal/loadgen"
)

// workload is one traffic mix against a freshly booted dfserve. One
// client runs a closed loop: it sends its next request when the previous
// one returns, as an ingest pipeline or dashboard that waits for each
// reply does. A single client keeps the measured latency a service time
// rather than a queueing delay, which on a small machine makes it depend
// on whatever else shares the processors.
type workload struct {
	// space is the protected-attribute space, name:cardinality pairs.
	space    string
	monitors int
	// watched arms per-batch alerting (epsilonLimit, metricLimits) on
	// every monitor.
	watched bool
	// warmup is the number of decisions each monitor ingests during
	// set-up.
	warmup int
	// batch is the number of decisions in one observe request.
	batch int
	mix   loadgen.Mix
	// primary is the request kind whose latency the run reports.
	primary loadgen.Op
}

// The two workloads stress disjoint layers, so an optimisation of one
// has the other as its no-change control. Traffic spreads evenly over
// the monitors; decisions follow a zipf population skew over the groups.
var workloads = map[string]workload{
	// ingest is the monitor hot path with alerting armed: every observe
	// batch pays JSON decode, sharded ingest and one Watch check of ε
	// plus four metric limits (stream, core, fairmetrics) over the
	// 512-group, nine-attribute lattice of the repository's Watch
	// benchmarks. Batches of 1,024 decisions keep a request's time mostly
	// computation; with small batches loopback wake-ups dominate, and on
	// a shared machine they vary from run to run. No reports, so the
	// resampling engines stay idle.
	"ingest": {
		space:    "a1:2,a2:2,a3:2,a4:2,a5:2,a6:2,a7:2,a8:2,a9:2",
		monitors: 4, watched: true,
		warmup:  4096,
		batch:   1024,
		mix:     loadgen.Mix{Observe: 1},
		primary: loadgen.OpObserve,
	},
	// audit is a dashboard pulling full reports (four metric sections,
	// subset ladders, bootstrap and credible intervals) from
	// census-sized windows (32,561 decisions, the census training set's
	// size) over a 160-group, 31-subset lattice. Unwatched ingest keeps
	// the windows moving, so each report's incremental ladder has
	// changed cells to fold in, while the Watch path stays idle.
	"audit": {
		space:    "gender:2,race:5,age:4,nationality:2,disability:2",
		monitors: 2,
		warmup:   32561,
		batch:    64,
		mix:      loadgen.Mix{Observe: 3, Report: 1},
		primary:  loadgen.OpReport,
	},
}

const (
	clients   = 1
	groupSkew = 0.5
	alpha     = 1.0
	// setups is how many times a run boots and provisions a server; the
	// median is reported and the last server carries the load.
	setups = 9
	// reportMetrics and resamples shape every report request.
	reportMetrics = "worst_gap,worst_ratio,alpha_if,demographic_parity"
	resamples     = 50
)

// outcomes is the binary vocabulary every metric above is defined on.
var outcomes = []string{"y0", "y1"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: ingest or audit")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured load duration")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	dfserve := flag.String("dfserve", "", "path to the dfserve binary under test")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want ingest or audit)\n", *name)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *dfserve == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1, -trace 0|1 and -dfserve")
		return 2
	}
	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := b.execute(*dfserve, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench holds one run's fixed inputs.
type bench struct {
	w     workload
	seed  uint64
	space *fairness.Space
	ids   []string
}

func newBench(w workload, seed uint64) (*bench, error) {
	space, err := parseSpace(w.space)
	if err != nil {
		return nil, err
	}
	ids := make([]string, w.monitors)
	for i := range ids {
		ids[i] = "bench-" + strconv.Itoa(i)
	}
	return &bench{w: w, seed: seed, space: space, ids: ids}, nil
}

// execute sets up several times, drives the last server, verifies its
// state and assembles the result.
func (b *bench) execute(dfserve string, d time.Duration, trace bool) (*result, error) {
	var srv *server
	defer func() {
		if srv != nil {
			_ = srv.stop() // error path only; the success path checks stop
		}
	}()
	var exp *expectation
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if srv, err = startServer(dfserve, clients); err != nil {
			return nil, err
		}
		if exp, err = b.provision(srv); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	load, err := b.drive(srv, exp, d)
	if err != nil {
		return nil, err
	}
	verifyErr := b.verify(srv, exp)
	if verifyErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", verifyErr)
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}

	lat := load.latencies[b.w.primary]
	fmt.Fprintf(os.Stderr, "perfbench: %d %s requests timed, %d attempted, %d failed, %d observations acknowledged in %v\n",
		len(lat), b.w.primary, load.attempted, load.failed, exp.observed, load.elapsed.Round(time.Millisecond))
	if load.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", load.firstErr)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no successful %s requests to time", b.w.primary)
	}
	res := &result{
		Correct:   verifyErr == nil && load.failed == 0,
		Attempted: load.attempted,
		Failed:    load.failed,
	}
	if trace {
		res.Metrics, err = b.layers(exp, load)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	// The mean, not the median: a request's server time is bimodal on a
	// machine shared with other work, and a median near the boundary
	// jumps between the modes from run to run, while the mean moves in
	// proportion to the share of slow requests.
	res.Metrics = map[string]metric{
		"mean_ms": {mean(lat) / 1e6, "ms"},
		"p99_ms":  {quantile(lat, 0.99) / 1e6, "ms"},
		"setup_s": {median(setupTimes), "s"},
	}
	return res, nil
}

func mean(ns []int64) float64 {
	total := 0.0
	for _, v := range ns {
		total += float64(v)
	}
	return total / float64(len(ns))
}

// quantile returns the nearest-rank q-quantile of ns without
// reordering it.
func quantile(ns []int64, q float64) float64 {
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseSpace builds a synthetic space from "name:cardinality,..."; the
// values are v0..v<k-1>.
func parseSpace(spec string) (*fairness.Space, error) {
	var attrs []fairness.Attr
	for _, part := range strings.Split(spec, ",") {
		name, card, ok := strings.Cut(part, ":")
		k, err := strconv.Atoi(card)
		if !ok || err != nil || k < 1 {
			return nil, fmt.Errorf("bad space attribute %q", part)
		}
		values := make([]string, k)
		for i := range values {
			values[i] = "v" + strconv.Itoa(i)
		}
		attrs = append(attrs, fairness.Attr{Name: name, Values: values})
	}
	return fairness.NewSpace(attrs...)
}
