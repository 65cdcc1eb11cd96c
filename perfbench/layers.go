package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
	"mvrlu/internal/server"
	"mvrlu/internal/wal"

	// Registers the ordered-index builds (mvrlu-idx) with kvstore.
	_ "mvrlu/internal/index"
)

// The traced run measures each layer separately:
//
//   - the daemon with tracing off, scraping METRICS and INFO ALL around
//     the window (core and server counters);
//   - the daemon with -trace, reading TRACELOG RECENT after the window
//     (stage fractions, per-kind server time, tracing overhead);
//   - the same seeded op stream replayed in process against the store
//     sessions (kvstore/index), with a span around every call;
//   - the workload's writes replayed straight into a WAL;
//   - the workload's encoded requests parsed by server.ReadCommand.

// traceRecent sizes the traced daemon's recent-trace ring.
const traceRecent = 16384

func runLayers(cfg config) (*result, error) {
	// mvkvd records telemetry by default; the in-process replays match.
	obs.SetEnabled(true)
	w := cfg.w
	errs := &errLog{}
	ks := layout(w)
	half := cfg.window / 2
	var attempted uint64

	// Untraced daemon: counter deltas over the window.
	d, _, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	plain, err := measureDaemon(d, cfg, ks, half, errs, false)
	if err != nil {
		return nil, err
	}
	attempted += plain.attempted

	// Traced daemon: stage breakdown of recent batches.
	d, _, err = setUp(cfg, "-trace", "-trace-recent", strconv.Itoa(traceRecent))
	if err != nil {
		return nil, err
	}
	traced, err := measureDaemon(d, cfg, ks, half, errs, true)
	if err != nil {
		return nil, err
	}
	attempted += traced.attempted

	sess, err := replaySessions(cfg, ks, errs)
	if err != nil {
		return nil, err
	}
	attempted += sess.ops
	wp, err := probeWAL(cfg, ks, filepath.Join(cfg.work, "probe-wal"))
	if err != nil {
		return nil, err
	}
	parse := benchParse(cfg, ks)

	a, b := plain.before, plain.after
	secs := b.at.Sub(a.at).Seconds()
	cmds := delta(a, b, "server_commands_total")
	commits := plain.infoAfter["commits"] - plain.infoBefore["commits"]
	aborts := plain.infoAfter["aborts"] - plain.infoBefore["aborts"]
	batchNs := delta(a, b, "server_batch_ns_sum")
	serverUsPerCmd := ratio(batchNs, cmds) / 1e3
	sessUsPerCmd := ratio(sess.busyNs, float64(sess.ops)) / 1e3

	res := &result{attempted: attempted, failed: errs.count()}
	res.add("core.derefs_per_cmd", "count", ratio(delta(a, b, "mvrlu_deref_ns_count"), cmds))
	res.add("core.chain_steps_per_deref", "count", histMean(a, b, "mvrlu_deref_chain_steps"))
	res.add("core.deref_ns_mean", "ns", histMean(a, b, "mvrlu_deref_ns"))
	res.add("core.cs_ns_mean", "ns", histMean(a, b, "mvrlu_cs_ns"))
	res.add("core.commit_ns_mean", "ns", histMean(a, b, "mvrlu_commit_ns"))
	res.add("core.trylock_ns_mean", "ns", histMean(a, b, "mvrlu_trylock_ns"))
	res.add("core.abort_ratio", "ratio", ratio(aborts, commits+aborts))
	// GC passes are triggered by log occupancy, so a workload with few
	// writes may run none in the window: GC cost is reported as a share
	// of wall time and per command, which stay defined at zero passes.
	res.add("core.gc_time_frac", "ratio", delta(a, b, "mvrlu_gc_pass_ns_sum")/(secs*1e9))
	res.add("core.reclaimed_per_kcmd", "count", 1e3*ratio(delta(a, b, "mvrlu_gc_reclaimed_slots_sum"), cmds))
	res.add("core.watermark_scans_per_s", "1/s", delta(a, b, "mvrlu_watermark_scans_total")/secs)

	res.add("session.get_ns_p50", "ns", quantile(sess.lat[kGet], 0.5))
	res.add("session.get_ns_p99", "ns", quantile(sess.lat[kGet], 0.99))
	res.add("session.set_ns_p50", "ns", quantile(sess.lat[kSet], 0.5))
	res.add("session.focus_ns_p50", "ns", quantile(sess.lat[w.focus], 0.5))
	res.add("session.focus_ns_p99", "ns", quantile(sess.lat[w.focus], 0.99))
	res.add("session.ops_s", "1/s", float64(sess.ops)/sess.elapsed.Seconds())

	res.add("resp.parse_ns_per_cmd", "ns", parse.nsPerCmd)
	res.add("resp.allocs_per_cmd", "count", parse.allocsPerCmd)

	res.add("server.batch_us_p50", "us", histQuantile(a, b, "server_batch_ns", 0.5)/1e3)
	res.add("server.service_frac", "ratio", ratio(batchNs/1e3, plain.load.rttSum))
	res.add("server.residual_us_per_cmd", "us", serverUsPerCmd-sessUsPerCmd-parse.nsPerCmd/1e3)
	res.add("server.shard_imbalance", "ratio", imbalance(a, b))

	res.add("wal.append_ns_p50", "ns", quantile(wp.appendNs, 0.5))
	res.add("wal.barrier_us_p50", "us", quantile(wp.barrierUs, 0.5))
	res.add("wal.fsync_us_mean", "us", wp.fsyncUsMean)
	res.add("wal.records_per_sync", "count", wp.recordsPerSync)
	res.add("wal.bytes_per_user_byte", "ratio", wp.bytesPerUserByte)
	res.add("wal.replay_us_per_record", "us", wp.replayUsPerRecord)

	fr := traced.stageFracs
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		// No workload's daemon runs a WAL; the WAL layer is measured by
		// the probe instead.
		if st != obs.StageWALAppend && st != obs.StageWALBarrier {
			res.add("stage."+st.String()+"_frac", "ratio", fr[st])
		}
	}
	res.add("daemon.ops_s", "1/s", median(plain.load.sliceRates(rateSlice)))
	res.add("trace.overhead_frac", "ratio", 1-traced.load.opsPerSec()/plain.load.opsPerSec())

	fmt.Fprintf(cfg.out, "workload %s (traced run): untraced %.0f ops/s, traced %.0f ops/s, in-process sessions %.0f ops/s\n",
		w.name, plain.load.opsPerSec(), traced.load.opsPerSec(), float64(sess.ops)/sess.elapsed.Seconds())
	fmt.Fprintf(cfg.out, "  %d traced batches; engine GC: %.0f passes, %.0f ns mean, %.1f slots reclaimed mean\n",
		traced.traces, delta(a, b, "mvrlu_gc_pass_ns_count"), histMean(a, b, "mvrlu_gc_pass_ns"),
		histMean(a, b, "mvrlu_gc_reclaimed_slots"))
	fmt.Fprintf(cfg.out, "  wal probe: %d records, %.0f records/sync, append wait %.0f ns mean\n",
		wp.records, wp.recordsPerSync, wp.appendWaitNsMean)
	reconcile(cfg.out, w, plain.load, traced, sess, parse)
	reportErrors(cfg.out, res, errs)
	return res, nil
}

// imbalance is max/mean of the per-shard command counts over the window
// (1 on an unsharded daemon, which exports no per-shard counts).
func imbalance(a, b *scrape) float64 {
	if len(b.shards) < 2 || len(a.shards) != len(b.shards) {
		return 1
	}
	mx, sum := 0.0, 0.0
	for i := range b.shards {
		d := b.shards[i] - a.shards[i]
		mx = math.Max(mx, d)
		sum += d
	}
	return ratio(mx, sum/float64(len(b.shards)))
}

// daemonRun is one daemon phase of the traced run.
type daemonRun struct {
	load          *loadResult
	attempted     uint64
	before, after *scrape            // METRICS at the window's edges
	infoBefore    map[string]float64 // INFO ALL before the warmup
	infoAfter     map[string]float64 // INFO ALL after the window
	// traced runs only:
	traces     int
	stageFracs [obs.NumStages]float64
	serverNs   [numKinds]float64 // mean server ns per command by kind
}

// measureDaemon drives d for the window and stops it. Untraced, it
// scrapes METRICS as the window opens and after it, and the quiescent
// engine stats (INFO ALL) before the warmup and after the window.
// Traced, it resets the flight recorder as the window opens and reads
// the recent traces after it.
func measureDaemon(d *daemon, cfg config, ks [conns]keyspace, window time.Duration, errs *errLog, traced bool) (out *daemonRun, err error) {
	defer func() {
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}()
	out = &daemonRun{}
	atStart := func() (err error) {
		_, err = command(d.addr, "TRACELOG", "RESET")
		return err
	}
	if !traced {
		if out.infoBefore, err = takeInfo(d.addr); err != nil {
			return nil, err
		}
		atStart = func() (err error) {
			out.before, err = takeMetrics(d.addr)
			return err
		}
	}
	if out.load, err = runLoad(d.addr, cfg.w, cfg.seed, ks, cfg.warmup, window, errs, atStart); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if traced {
		text, err := command(d.addr, "TRACELOG", "RECENT", strconv.Itoa(traceRecent))
		if err != nil {
			return nil, err
		}
		out.parseTraces(text)
	} else {
		if out.after, err = takeMetrics(d.addr); err != nil {
			return nil, err
		}
		if out.infoAfter, err = takeInfo(d.addr); err != nil {
			return nil, err
		}
	}
	out.attempted = out.load.attempted
	n, err := audit(d.addr, cfg.w, ks, out.load.acked, errs)
	out.attempted += n
	return out, err
}

var traceLineRE = regexp.MustCompile(`^id=\d+ cmd=(\S+) cmds=(\d+) shards=\d+ total_ns=(\d+)`)

// parseTraces folds TRACELOG RECENT lines into stage fractions (means of
// obs.TraceData.AdjustedStages over total time) and per-kind server
// time per command.
func (r *daemonRun) parseTraces(text string) {
	var stageSum [obs.NumStages]float64
	var total float64
	var kindNs, kindCmds [numKinds]float64
	for _, line := range strings.Split(text, "\n") {
		m := traceLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var d obs.TraceData
		d.TotalNs, _ = strconv.ParseInt(m[3], 10, 64)
		ncmds, _ := strconv.ParseFloat(m[2], 64)
		for _, f := range strings.Fields(line) {
			k, v, _ := strings.Cut(f, "=")
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				if k == st.String() {
					d.Stages[st], _ = strconv.ParseInt(v, 10, 64)
				}
			}
		}
		adj := d.AdjustedStages()
		for st := range adj {
			stageSum[st] += float64(adj[st])
		}
		total += float64(d.TotalNs)
		r.traces++
		var k kind
		switch m[1] {
		case "get":
			k = kGet
		case "set":
			k = kSet
		case "range":
			k = kRange
		case "multi":
			k = kTxn
		default:
			continue
		}
		kindNs[k] += float64(d.TotalNs)
		kindCmds[k] += ncmds
	}
	for st := range stageSum {
		r.stageFracs[st] = ratio(stageSum[st], total)
	}
	for k := range kindNs {
		r.serverNs[k] = ratio(kindNs[k], kindCmds[k])
	}
}

// sessionRun is the in-process replay's outcome.
type sessionRun struct {
	lat     [numKinds][]float64 // ns per call (a txn call is one MULTI body)
	ops     uint64              // RESP-equivalent commands replayed
	busyNs  float64             // time inside store calls
	elapsed time.Duration
}

// maxSamples caps the per-kind samples one replay goroutine keeps.
const maxSamples = 1 << 20

// replaySessions replays the workload's seeded op stream in process on
// kvstore.NewSharded with the daemon's build and shard count, one
// goroutine per connection, timing every store call.
func replaySessions(cfg config, ks [conns]keyspace, errs *errLog) (*sessionRun, error) {
	w := cfg.w
	st, err := kvstore.NewSharded(w.store, w.shards, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	s := st.Session()
	for i := 0; i < w.keys; i++ {
		s.Set(keyName(i), value(i, "p", 0))
	}
	s.Close()
	parts := make([]sessionRun, conns)
	deadline := time.Now().Add(cfg.replay)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := st.Session()
			defer sess.Close()
			replayConn(sess, newGenerator(w, cfg.seed, c, ks[c]), deadline, &parts[c], errs)
		}(c)
	}
	wg.Wait()
	out := &sessionRun{elapsed: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		out.ops += p.ops
		out.busyNs += p.busyNs
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
	}
	return out, nil
}

func replayConn(sess kvstore.Session, gen *generator, deadline time.Time, out *sessionRun, errs *errLog) {
	osess, _ := sess.(kvstore.OrderedSession)
	writer := writerName(gen.conn)
	keys := gen.w.keys
	record := func(k kind, t0 time.Time) {
		ns := float64(time.Since(t0).Nanoseconds())
		out.busyNs += ns
		if len(out.lat[k]) < maxSamples {
			out.lat[k] = append(out.lat[k], ns)
		}
	}
	txn := make([]kvstore.TxnOp, txnKeys)
	for time.Now().Before(deadline) {
		b := gen.next()
		out.ops += uint64(cmdsPerBatch(b.kind))
		for _, o := range b.ops {
			switch b.kind {
			case kGet:
				t0 := time.Now()
				v, ok := sess.Get(keyName(o.key))
				record(kGet, t0)
				if pv, pok := parseValue([]byte(v)); !ok || !pok || pv.key != keyName(o.key) {
					errs.add("session", "session Get %s: %q", keyName(o.key), v)
				}
			case kSet:
				k, v := keyName(o.key), value(o.key, writer, o.stamp)
				t0 := time.Now()
				sess.Set(k, v)
				record(kSet, t0)
			case kRange:
				lo, hi, want := rangeBounds(keys, o.key, o.rev)
				got := make([]string, 0, rangeLimit)
				visit := func(k, _ string) bool {
					got = append(got, k)
					return len(got) < rangeLimit
				}
				t0 := time.Now()
				if o.rev {
					osess.RangeDescend(keyName(lo), keyName(hi), visit)
				} else {
					osess.RangeAscend(keyName(lo), keyName(hi), visit)
				}
				record(kRange, t0)
				if !sameKeys(got, want) {
					errs.add("session", "session range from %s rev=%v: got %v", keyName(o.key), o.rev, got)
				}
			case kTxn:
				for j, k := range gen.ks.groups[o.group] {
					txn[j] = kvstore.TxnOp{Key: keyName(k), Value: value(k, writer, o.stamp)}
				}
				t0 := time.Now()
				_, err := osess.ApplyTxn(txn)
				record(kTxn, t0)
				if err != nil {
					errs.add("session", "session ApplyTxn: %v", err)
				}
			}
		}
	}
}

func sameKeys(got []string, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, k := range want {
		if got[i] != keyName(k) {
			return false
		}
	}
	return true
}

// walProbe is the WAL layer measured alone on the workload's writes.
type walProbe struct {
	appendNs          []float64
	barrierUs         []float64
	records           uint64
	fsyncUsMean       float64
	recordsPerSync    float64
	appendWaitNsMean  float64
	bytesPerUserByte  float64
	replayUsPerRecord float64
}

// probeWAL appends the workload's write stream (one record per SET, one
// record group per MULTI body) straight into a WAL with sync=always
// from one goroutine per connection, with one SyncBarrier per writing
// batch, then closes it and times recovery.
func probeWAL(cfg config, ks [conns]keyspace, dir string) (*walProbe, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	l.RegisterMetrics(reg)
	var ts atomic.Uint64
	var userBytes atomic.Int64
	parts := make([]walProbe, conns)
	deadline := time.Now().Add(cfg.walProb)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newGenerator(cfg.w, cfg.seed, c, ks[c])
			writer := writerName(c)
			p := &parts[c]
			rec := func(k int, stamp uint64) wal.Record {
				key, v := keyName(k), value(k, writer, stamp)
				userBytes.Add(int64(len(key) + len(v)))
				return wal.Record{TS: ts.Add(1), Shard: uint32(kvstore.ShardOf(key, cfg.w.shards)), Key: key, Value: v}
			}
			for time.Now().Before(deadline) {
				b := gen.next()
				if b.kind != kSet && b.kind != kTxn {
					continue
				}
				for _, o := range b.ops {
					if b.kind == kSet {
						r := rec(o.key, o.stamp)
						t0 := time.Now()
						_ = l.Append(r)
						p.appendNs = append(p.appendNs, float64(time.Since(t0).Nanoseconds()))
						continue
					}
					recs := make([]wal.Record, 0, txnKeys)
					for _, k := range gen.ks.groups[o.group] {
						recs = append(recs, rec(k, o.stamp))
					}
					t0 := time.Now()
					_ = l.AppendGroup(recs)
					p.appendNs = append(p.appendNs, float64(time.Since(t0).Nanoseconds()))
				}
				t0 := time.Now()
				_ = l.SyncBarrier()
				p.barrierUs = append(p.barrierUs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(c)
	}
	wg.Wait()
	if err := l.Err(); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	out := &walProbe{}
	for i := range parts {
		out.appendNs = append(out.appendNs, parts[i].appendNs...)
		out.barrierUs = append(out.barrierUs, parts[i].barrierUs...)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return nil, err
	}
	m := parseExposition(text.String())
	st := l.Stats()
	out.records = st.Records
	out.fsyncUsMean = ratio(m["wal_fsync_ns_sum"], m["wal_fsync_ns_count"]) / 1e3
	out.recordsPerSync = ratio(m["wal_group_records_sum"], m["wal_group_records_count"])
	out.appendWaitNsMean = ratio(m["wal_append_wait_ns_sum"], m["wal_append_wait_ns_count"])
	out.bytesPerUserByte = ratio(float64(st.Bytes), float64(userBytes.Load()))
	if err := l.Close(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	l2, rec, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("wal probe recovery: %w", err)
	}
	sets, _ := rec.Apply(discard{})
	replay := time.Since(t0)
	l2.Close()
	out.replayUsPerRecord = ratio(float64(replay.Nanoseconds())/1e3, float64(sets))
	return out, nil
}

// discard is a recovery target that drops what is replayed into it, so
// the probe times the WAL's scan and decode alone.
type discard struct{}

func (discard) Set(string, string) {}
func (discard) Remove(string) bool { return false }

// parseExposition reads unlabeled samples of a Prometheus text page.
func parseExposition(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			m[name] = f
		}
	}
	return m
}

// parseRun is the RESP codec measured alone.
type parseRun struct {
	nsPerCmd     float64
	allocsPerCmd float64
}

// benchParse encodes the workload's request stream (4096 batches from
// the same generators) and times server.ReadCommand over it.
func benchParse(cfg config, ks [conns]keyspace) parseRun {
	var buf bytes.Buffer
	enc := &client{bw: bufio.NewWriter(&buf)}
	gens := make([]*generator, conns)
	for c := range gens {
		gens[c] = newGenerator(cfg.w, cfg.seed, c, ks[c])
	}
	for i := 0; i < 4096; i++ {
		g := gens[i%conns]
		encodeBatch(enc, g, g.next(), nil)
	}
	enc.bw.Flush()
	stream := buf.Bytes()
	var before, after runtime.MemStats
	var cmds float64
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		br := bufio.NewReaderSize(bytes.NewReader(stream), 16<<10)
		for {
			if _, err := server.ReadCommand(br); err != nil {
				if err != io.EOF {
					panic(err)
				}
				break
			}
			cmds++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return parseRun{
		nsPerCmd:     float64(elapsed.Nanoseconds()) / cmds,
		allocsPerCmd: float64(after.Mallocs-before.Mallocs) / cmds,
	}
}

// reconcile prints, per op kind, end-to-end µs per command against the
// layers: the daemon's own time (from the traced run) and the network
// plus client remainder, then inside the daemon the store session and
// RESP parse self times, and the residual no layer accounts for.
func reconcile(out io.Writer, w workload, load *loadResult, traced *daemonRun, sess *sessionRun, parse parseRun) {
	fmt.Fprintf(out, "  reconciliation (us per command): kind e2e = server + net/client; server = session + parse + residual\n")
	for k := kind(0); k < numKinds; k++ {
		if len(load.lat[k]) == 0 {
			continue
		}
		per := float64(cmdsPerBatch(k))
		e2e := mean(load.lat[k]) / per
		srv := traced.serverNs[k] / 1e3
		// A txn call replays a whole MULTI body (txnKeys+2 commands).
		callCmds := 1.0
		if k == kTxn {
			callCmds = txnKeys + 2
		}
		sessUs := mean(sess.lat[k]) / callCmds / 1e3
		parseUs := parse.nsPerCmd / 1e3
		fmt.Fprintf(out, "    %-5s e2e=%8.2f server=%8.2f net/client=%8.2f | session=%8.3f parse=%6.3f residual=%8.2f\n",
			k, e2e, srv, e2e-srv, sessUs, parseUs, srv-sessUs-parseUs)
	}
}
