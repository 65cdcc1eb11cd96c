package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The load is closed loop: each of the conns connections keeps exactly
// one pipelined batch in flight and sends the next only after every
// reply of the previous one has been read and checked.

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// errLog counts failed checks and keeps the first few of each check
// for the report.
type errLog struct {
	mu      sync.Mutex
	failed  uint64
	samples map[string][]string // check -> first messages
}

func (e *errLog) add(check, format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed++
	if e.samples == nil {
		e.samples = map[string][]string{}
	}
	if len(e.samples[check]) < 3 {
		e.samples[check] = append(e.samples[check], fmt.Sprintf(format, args...))
	}
}

func (e *errLog) count() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// connResult is what one connection measured.
type connResult struct {
	attempted uint64    // commands sent (warmup included)
	cmds      uint64    // commands completed in measured batches
	lastEnd   time.Time // end of the last measured batch
	lat       [numKinds][]float64
	end       [numKinds][]int64 // batch end (UnixNano), parallel to lat
	// acked maps each key this connection wrote to its last acknowledged
	// value (ownHalf workloads only).
	acked map[int]string
}

// loadResult merges both connections.
type loadResult struct {
	attempted uint64
	cmds      uint64
	window    time.Duration
	lat       [numKinds][]float64 // batch round trips in µs
	end       [numKinds][]int64   // batch ends (UnixNano), parallel to lat
	start     time.Time           // start of the measured window
	rttSum    float64             // µs, measured batches
	acked     map[int]string
}

func (l *loadResult) opsPerSec() float64 { return float64(l.cmds) / l.window.Seconds() }

// sliceRates is the command rate of each whole slice of the window,
// counting a batch's commands when it completes. Their median damps the
// bursts in which a shared host stalls the vCPUs.
func (l *loadResult) sliceRates(slice time.Duration) []float64 {
	n := int(l.window / slice)
	counts := make([]float64, n)
	for k := range l.end {
		for _, e := range l.end[k] {
			if i := int(time.Duration(e-l.start.UnixNano()) / slice); i >= 0 && i < n {
				counts[i] += float64(cmdsPerBatch(kind(k)))
			}
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	return counts
}

// runLoad drives the daemon at addr for warmup+window and checks every
// reply into errs. atStart, when set, runs as the measured window opens,
// with the load running.
func runLoad(addr string, w workload, seed uint64, ks [conns]keyspace, warmup, window time.Duration, errs *errLog, atStart func() error) (*loadResult, error) {
	var phase atomic.Int32
	results := make([]connResult, conns)
	fail := make([]error, conns)
	clients := make([]*client, conns)
	for c := range clients {
		cl, err := dial(addr)
		if err != nil {
			for _, o := range clients[:c] {
				o.close()
			}
			return nil, err
		}
		clients[c] = cl
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer clients[c].close()
			gen := newGenerator(w, seed, c, ks[c])
			fail[c] = drive(clients[c], gen, &phase, &results[c], errs)
		}(c)
	}
	time.Sleep(warmup)
	var startErr error
	if atStart != nil {
		startErr = atStart()
	}
	start := time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(window)
	phase.Store(phaseStop)
	wg.Wait()
	if startErr != nil {
		return nil, startErr
	}
	for _, err := range fail {
		if err != nil {
			return nil, err
		}
	}
	out := &loadResult{acked: map[int]string{}}
	var end time.Time
	for i := range results {
		r := &results[i]
		out.attempted += r.attempted
		out.cmds += r.cmds
		if r.lastEnd.After(end) {
			end = r.lastEnd
		}
		for k := range r.lat {
			out.lat[k] = append(out.lat[k], r.lat[k]...)
			out.end[k] = append(out.end[k], r.end[k]...)
			for _, v := range r.lat[k] {
				out.rttSum += v
			}
		}
		for k, v := range r.acked {
			out.acked[k] = v
		}
	}
	out.start = start
	out.window = end.Sub(start)
	if out.window <= 0 {
		return nil, fmt.Errorf("no batch completed in the measured window")
	}
	return out, nil
}

// drive is one connection's closed loop.
func drive(cl *client, gen *generator, phase *atomic.Int32, res *connResult, errs *errLog) error {
	if gen.w.ownHalf {
		res.acked = map[int]string{}
	}
	var r reply
	vals := make([]string, 0, batchOps)
	for {
		ph := phase.Load()
		if ph == phaseStop {
			return nil
		}
		b := gen.next()
		t0 := time.Now()
		vals = encodeBatch(cl, gen, b, vals[:0])
		n := cmdsPerBatch(b.kind)
		res.attempted += uint64(n)
		if err := cl.flush(); err != nil {
			return err
		}
		if err := checkBatch(cl, gen, b, vals, &r, res, errs); err != nil {
			return err
		}
		end := time.Now()
		if ph == phaseMeasure {
			res.cmds += uint64(n)
			res.lastEnd = end
			res.lat[b.kind] = append(res.lat[b.kind], float64(end.Sub(t0).Nanoseconds())/1e3)
			res.end[b.kind] = append(res.end[b.kind], end.UnixNano())
		}
	}
}

// encodeBatch buffers b's commands on cl and returns the values its
// writes carry, in op order.
func encodeBatch(cl *client, gen *generator, b batch, vals []string) []string {
	writer := writerName(gen.conn)
	switch b.kind {
	case kGet:
		for _, o := range b.ops {
			cl.send("GET", keyName(o.key))
		}
	case kSet:
		for _, o := range b.ops {
			v := value(o.key, writer, o.stamp)
			vals = append(vals, v)
			cl.send("SET", keyName(o.key), v)
		}
	case kRange:
		for _, o := range b.ops {
			lo, hi, _ := rangeBounds(gen.w.keys, o.key, o.rev)
			if o.rev {
				cl.send("RANGE", keyName(lo), keyName(hi), "LIMIT", "16", "REV")
			} else {
				cl.send("RANGE", keyName(lo), keyName(hi), "LIMIT", "16")
			}
		}
	case kTxn:
		for _, o := range b.ops {
			cl.send("MULTI")
			for _, k := range gen.ks.groups[o.group] {
				v := value(k, writer, o.stamp)
				vals = append(vals, v)
				cl.send("SET", keyName(k), v)
			}
			cl.send("EXEC")
		}
	}
	return vals
}

// checkBatch reads and checks every reply of b.
func checkBatch(cl *client, gen *generator, b batch, vals []string, r *reply, res *connResult, errs *errLog) error {
	keys := gen.w.keys
	switch b.kind {
	case kGet:
		for _, o := range b.ops {
			if err := cl.read(r); err != nil {
				return err
			}
			checkGet(o.key, r, errs)
		}
	case kSet:
		for i, o := range b.ops {
			if err := cl.read(r); err != nil {
				return err
			}
			if !r.isOK() {
				errs.add("set", "SET %s: %s", keyName(o.key), r)
			} else if res.acked != nil {
				res.acked[o.key] = vals[i]
			}
		}
	case kRange:
		for _, o := range b.ops {
			if err := cl.read(r); err != nil {
				return err
			}
			_, _, want := rangeBounds(keys, o.key, o.rev)
			checkRange(want, o.rev, r, errs)
		}
	case kTxn:
		for i, o := range b.ops {
			ok := true
			for j := 0; j < txnKeys+2; j++ {
				if err := cl.read(r); err != nil {
					return err
				}
				switch {
				case j == 0:
					ok = ok && r.isOK()
				case j <= txnKeys:
					ok = ok && r.typ == '+' && string(r.str) == "QUEUED"
				default:
					ok = ok && checkExec(r)
				}
			}
			if !ok {
				errs.add("txn", "txn group %v: last reply %s", gen.ks.groups[o.group], r)
				continue
			}
			if res.acked != nil {
				for j, k := range gen.ks.groups[o.group] {
					res.acked[k] = vals[i*txnKeys+j]
				}
			}
		}
	}
	return nil
}

// checkGet: a GET must return its own key's value, never nil.
func checkGet(key int, r *reply, errs *errLog) bool {
	if r.typ != '$' || r.null {
		errs.add("get", "GET %s: %s", keyName(key), r)
		return false
	}
	pv, ok := parseValue(r.str)
	if !ok || pv.key != keyName(key) || !validWriter(pv.writer) {
		errs.add("get", "GET %s: foreign or malformed value %q", keyName(key), r.str)
		return false
	}
	return true
}

func validWriter(w string) bool {
	if w == "p" {
		return true
	}
	for c := 0; c < conns; c++ {
		if w == writerName(c) {
			return true
		}
	}
	return false
}

// checkRange: keys are never deleted, so a RANGE must return exactly the
// expected keys — min(16, keys in range), strictly ordered in the
// requested direction, inside the bounds — each with its own value.
func checkRange(want []int, rev bool, r *reply, errs *errLog) bool {
	if r.typ != '*' || r.null || len(r.elems) != 2*len(want) {
		errs.add("range", "RANGE from %s rev=%v: got %s, want %d pairs", keyName(want[0]), rev, r, len(want))
		return false
	}
	for i, k := range want {
		name := keyName(k)
		kr, vr := &r.elems[2*i], &r.elems[2*i+1]
		if kr.typ != '$' || string(kr.str) != name {
			errs.add("range", "RANGE from %s rev=%v: pair %d key %s, want %s", keyName(want[0]), rev, i, kr, name)
			return false
		}
		if pv, ok := parseValue(vr.str); vr.typ != '$' || !ok || pv.key != name {
			errs.add("range", "RANGE pair %s: foreign or malformed value %q", name, vr.str)
			return false
		}
	}
	return true
}

// checkExec: an EXEC of a body of txnKeys SETs returns txnKeys OKs.
func checkExec(r *reply) bool {
	if r.typ != '*' || r.null || len(r.elems) != txnKeys {
		return false
	}
	for i := range r.elems {
		if !r.elems[i].isOK() {
			return false
		}
	}
	return true
}
