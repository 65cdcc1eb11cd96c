// perfbench is the repository's benchmark: it builds nothing itself
// (run.sh builds it and cmd/mvkvd), starts mvkvd as a subprocess,
// preloads it, drives it over loopback TCP with a seeded closed-loop
// generator (2 connections, one pipelined batch of 16 same-kind commands
// each), checks every reply, and prints the metrics named in
// BENCHMARK.json. With -trace 1 it instead measures the layers: daemon
// counter deltas, a traced daemon run, and in-process replays of the
// same op stream against the store, the RESP codec and the WAL.
//
// Usage:
//
//	bash perfbench/run.sh --workload idx-scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it are the human-readable report, the run metadata and, with -trace 1,
// the reconciliation of end-to-end time against the layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark run.
type config struct {
	w       workload
	seed    uint64
	window  time.Duration
	warmup  time.Duration
	mvkvd   string // daemon binary
	work    string // scratch directory for the WAL probe
	rounds  int    // end-to-end rounds, each on a fresh daemon
	replay  time.Duration
	walProb time.Duration
	// plant, when set, runs against the preloaded daemon before the load
	// starts; the benchmark's tests use it to plant defects the checks
	// must catch.
	plant func(addr string) error
	out   io.Writer // report
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome.
type result struct {
	attempted uint64
	failed    uint64
	metrics   []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: kv-hot-get or idx-scan")
		seed    = flag.Uint64("seed", 1, "generator seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		mvkvd   = flag.String("mvkvd", "", "mvkvd binary to benchmark")
		work    = flag.String("work", "", "scratch directory (WAL probe)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *mvkvd == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload kv-hot-get|idx-scan -seed N -seconds S -trace 0|1 -mvkvd BIN -work DIR")
		os.Exit(2)
	}
	cfg := config{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		warmup:  500 * time.Millisecond,
		mvkvd:   *mvkvd,
		work:    *work,
		rounds:  6,
		replay:  2 * time.Second,
		walProb: time.Second,
		out:     os.Stdout,
	}
	printMeta(cfg, *trace)
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runLayers(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err == nil {
		err = res.validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// printMeta records what the numbers were measured on.
func printMeta(cfg config, trace int) {
	meta := map[string]any{
		"workload":   cfg.w.name,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       cfg.seed,
		"build":      cfg.w.store,
		"shards":     cfg.w.shards,
		"keys":       cfg.w.keys,
		"conns":      conns,
		"batch":      batchOps,
		"trace":      trace,
	}
	b, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(cfg.out, string(b))
}

// commit names the code under test: $PERFBENCH_COMMIT, which run.sh
// sets from git when the tree is a checkout, else "unknown" (the
// benchmark also runs from plain source trees).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// validate rejects a run with a metric that could not be measured.
func (r *result) validate() error {
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	return nil
}

// json renders the result line: correct, attempted, failed, metrics.
func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	return string(b), err
}

// setUp starts a daemon with the workload's flags (plus extra) and
// preloads it. It returns the daemon and the set-up time: from daemon
// start, through preload, to ready.
func setUp(cfg config, extra ...string) (*daemon, float64, error) {
	d, err := startDaemon(cfg.mvkvd, append(cfg.w.daemonArgs(), extra...))
	if err != nil {
		return nil, 0, err
	}
	if err := preload(d.addr, cfg.w.keys); err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	return d, time.Since(d.start).Seconds(), nil
}

// runEndToEnd measures the end-to-end metrics with tracing off. The
// window is split over rounds, each on a freshly set-up daemon, and the
// metrics are medians over rounds: on a small shared host much of the
// run-to-run spread comes from the daemon instance (where its threads
// land, its heap layout), which the median damps. Throughput is only
// printed: it follows the host's CPU availability, which drifts over
// minutes far beyond any bound a gate could use.
func runEndToEnd(cfg config) (*result, error) {
	w := cfg.w
	errs := &errLog{}
	ks := layout(w)
	per := cfg.window / time.Duration(cfg.rounds)
	var attempted uint64
	var rates, getP50, setP50, focusP50, setups, rss []float64
	steal0 := readSteal()
	for r := 0; r < cfg.rounds; r++ {
		rr, err := runRound(cfg, ks, uint64(r), per, errs)
		if err != nil {
			return nil, err
		}
		l := rr.load
		attempted += rr.attempted
		rates = append(rates, l.sliceRates(rateSlice)...)
		getP50 = append(getP50, quantile(l.lat[kGet], 0.5))
		setP50 = append(setP50, quantile(l.lat[kSet], 0.5))
		focusP50 = append(focusP50, quantile(l.lat[w.focus], 0.5))
		setups = append(setups, rr.setup)
		rss = append(rss, rr.rss)
		fmt.Fprintf(cfg.out, "round %d: setup %.3fs, %.0f ops/s over %.2fs, peak RSS %.1f MB\n",
			r, rr.setup, l.opsPerSec(), l.window.Seconds(), rr.rss)
		for k := kind(0); k < numKinds; k++ {
			if xs := l.lat[k]; len(xs) > 0 {
				fmt.Fprintf(cfg.out, "  %-5s batches=%-7d p50=%9.1fus p99=%9.1fus (%d cmds/batch)\n",
					k, len(xs), quantile(xs, 0.5), quantile(xs, 0.99), cmdsPerBatch(k))
			}
		}
	}

	res := &result{attempted: attempted, failed: errs.count()}
	res.add("get_p50_us", "us", median(getP50))
	res.add("set_p50_us", "us", median(setP50))
	res.add("focus_p50_us", "us", median(focusP50))
	res.add("setup_s", "s", median(setups))
	res.add("peak_rss_mb", "MB", median(rss))
	fmt.Fprintf(cfg.out, "workload %s: focus kind %s; %.0f ops/s (median of %d slice rates; not gated, see METRICS.md); latencies are medians over %d rounds; host CPU steal %.1f%%\n",
		w.name, w.focus, median(rates), len(rates), cfg.rounds, 100*stealSince(steal0))
	reportErrors(cfg.out, res, errs)
	return res, nil
}

// rateSlice is the slice over which ops_s rates are taken.
const rateSlice = 500 * time.Millisecond

// roundResult is one round of the end-to-end run.
type roundResult struct {
	load      *loadResult
	attempted uint64
	setup     float64 // seconds
	rss       float64 // MB
}

// runRound sets up a daemon, drives it for the window, audits it and
// shuts it down.
func runRound(cfg config, ks [conns]keyspace, round uint64, window time.Duration, errs *errLog) (*roundResult, error) {
	w := cfg.w
	d, setup, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	running := true
	defer func() {
		if running {
			d.kill()
		}
	}()
	if cfg.plant != nil {
		if err := cfg.plant(d.addr); err != nil {
			return nil, fmt.Errorf("plant: %w", err)
		}
	}
	rr := &roundResult{setup: setup}
	if rr.load, err = runLoad(d.addr, w, cfg.seed<<8|round, ks, cfg.warmup, window, errs, nil); err != nil {
		return nil, err
	}
	if rr.rss, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	n, err := audit(d.addr, w, ks, rr.load.acked, errs)
	if err != nil {
		return nil, err
	}
	rr.attempted = rr.load.attempted + n
	running = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return rr, nil
}

// audit runs the post-load read-back checks and returns how many items
// it checked.
func audit(addr string, w workload, ks [conns]keyspace, acked map[int]string, errs *errLog) (uint64, error) {
	n, err := auditKeys(addr, w, acked, errs)
	if err != nil || !w.ownHalf {
		return n, err
	}
	g, err := auditGroups(addr, ks, errs)
	return n + g, err
}

func reportErrors(out io.Writer, res *result, errs *errLog) {
	fmt.Fprintf(out, "  error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	errs.mu.Lock()
	defer errs.mu.Unlock()
	checks := make([]string, 0, len(errs.samples))
	for c := range errs.samples {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, c := range checks {
		for _, s := range errs.samples[c] {
			fmt.Fprintf(out, "  error (%s check): %s\n", c, s)
		}
	}
}
