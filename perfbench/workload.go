package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"mvrlu/internal/kvstore"
)

// kind is one command kind. Every command of a batch has the same kind,
// so a batch's round trip is that kind's latency.
type kind int

const (
	kGet kind = iota
	kSet
	kRange
	kTxn
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "range", "txn"}

func (k kind) String() string { return kindNames[k] }

const (
	// batchOps is the number of key operations in one pipelined batch:
	// 16 GETs, 16 SETs, 16 RANGEs, or 4 MULTI bodies of 4 SETs.
	batchOps = 16
	// txnKeys is the number of SETs in one MULTI body.
	txnKeys = 4
	// txnBodies is the number of MULTI bodies in one txn batch.
	txnBodies = batchOps / txnKeys
	// rangeLimit is the LIMIT of every RANGE.
	rangeLimit = 16
	// valueLen is the length of every stored value.
	valueLen = 64
	// conns is the generator's connection count (= nproc on the
	// reference host); each keeps one batch in flight.
	conns = 2
)

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name   string
	store  string
	shards int
	keys   int
	zipf   bool // Zipf θ=0.99 key choice, else uniform
	// mix holds each kind's share of batches, in percent.
	mix [numKinds]int
	// ownHalf restricts each connection's writes to its own half of the
	// keyspace, so the last acknowledged value of every key is known, and
	// splits that half into SET keys and txn groups (see layout).
	ownHalf bool
	// focus is the kind the workload was chosen to measure; its latency
	// is reported as focus_p50_us.
	focus kind
}

var workloads = []workload{
	{
		name: "kv-hot-get", store: "mvrlu-kv", shards: 1, keys: 100_000,
		zipf: true, mix: [numKinds]int{kGet: 95, kSet: 5}, focus: kGet,
	},
	{
		name: "idx-scan", store: "mvrlu-idx", shards: 2, keys: 10_000, ownHalf: true,
		mix: [numKinds]int{kGet: 65, kRange: 20, kSet: 10, kTxn: 5}, focus: kRange,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// daemonArgs are the mvkvd flags the workload runs under (the listen
// address is added by the caller).
func (w workload) daemonArgs() []string {
	return []string{"-store", w.store, "-shards", strconv.Itoa(w.shards)}
}

// cmdsPerBatch is the number of RESP commands a batch of kind k sends:
// a txn body is MULTI, its SETs, and EXEC.
func cmdsPerBatch(k kind) int {
	if k == kTxn {
		return txnBodies * (txnKeys + 2)
	}
	return batchOps
}

func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// value encodes the key it belongs to, the writer ("p" for the preload,
// "c0"/"c1" for a connection) and the writer's stamp, padded to
// valueLen. Every GET reply is checked against this encoding.
func value(key int, writer string, stamp uint64) string {
	b := make([]byte, 0, valueLen)
	b = append(b, keyName(key)...)
	b = append(b, '|')
	b = append(b, writer...)
	b = append(b, '|')
	b = strconv.AppendUint(b, stamp, 10)
	b = append(b, '|')
	for len(b) < valueLen {
		b = append(b, '.')
	}
	return string(b)
}

// parsedValue is a decoded value.
type parsedValue struct {
	key    string
	writer string
	stamp  uint64
}

func parseValue(v []byte) (parsedValue, bool) {
	if len(v) != valueLen {
		return parsedValue{}, false
	}
	var f [3][]byte
	n, start := 0, 0
	for i := 0; i < len(v) && n < 3; i++ {
		if v[i] == '|' {
			f[n] = v[start:i]
			n++
			start = i + 1
		}
	}
	if n != 3 {
		return parsedValue{}, false
	}
	stamp, err := strconv.ParseUint(string(f[2]), 10, 64)
	if err != nil {
		return parsedValue{}, false
	}
	return parsedValue{key: string(f[0]), writer: string(f[1]), stamp: stamp}, true
}

func writerName(conn int) string { return "c" + strconv.Itoa(conn) }

// op is one generated key operation.
type op struct {
	key   int    // GET/SET key; RANGE anchor
	rev   bool   // RANGE direction
	group int    // txn group index into the connection's groups
	stamp uint64 // SET/txn writer stamp
}

// batch is one generated pipelined batch.
type batch struct {
	kind kind
	ops  []op
}

// keyspace is the per-connection view of which keys it may write.
type keyspace struct {
	setKeys []int   // keys the connection's SETs choose from (nil = all)
	groups  [][]int // txn groups: txnKeys co-sharded keys, written only by txns
}

// layout partitions the keyspace for a workload. With ownHalf, key i
// belongs to connection i%2; half of each connection's keys are SET
// keys and the other half form fixed txn groups of txnKeys keys on one
// shard, so a group is only ever written whole and must always read
// with one uniform stamp.
func layout(w workload) [conns]keyspace {
	var ks [conns]keyspace
	if !w.ownHalf {
		return ks
	}
	for c := 0; c < conns; c++ {
		byShard := make([][]int, w.shards)
		for i := c; i < w.keys; i += conns {
			if (i/conns)%2 == 0 {
				ks[c].setKeys = append(ks[c].setKeys, i)
				continue
			}
			s := kvstore.ShardOf(keyName(i), w.shards)
			byShard[s] = append(byShard[s], i)
			if len(byShard[s]) == txnKeys {
				ks[c].groups = append(ks[c].groups, byShard[s])
				byShard[s] = nil
			}
		}
	}
	return ks
}

// generator is one connection's seeded op stream. The daemon sees only
// what it generates.
type generator struct {
	w     workload
	conn  int
	rng   *rand.Rand
	zipf  *zipfian
	ks    keyspace
	stamp uint64
	buf   []op
}

func newGenerator(w workload, seed uint64, conn int, ks keyspace) *generator {
	g := &generator{
		w: w, conn: conn, ks: ks,
		rng: rand.New(rand.NewPCG(seed, uint64(conn)+0x9e3779b97f4a7c15)),
		buf: make([]op, 0, batchOps),
	}
	if w.zipf {
		g.zipf = newZipfian(w.keys, 0.99)
	}
	return g
}

func (g *generator) pickKind() kind {
	r := g.rng.IntN(100)
	for k := kind(0); k < numKinds; k++ {
		if r < g.w.mix[k] {
			return k
		}
		r -= g.w.mix[k]
	}
	panic("mix does not sum to 100")
}

func (g *generator) readKey() int {
	if g.zipf != nil {
		return g.zipf.next(g.rng)
	}
	return g.rng.IntN(g.w.keys)
}

func (g *generator) writeKey() int {
	if g.ks.setKeys != nil {
		return g.ks.setKeys[g.rng.IntN(len(g.ks.setKeys))]
	}
	return g.readKey()
}

// next returns the next batch; its ops slice is reused by the next call.
func (g *generator) next() batch {
	k := g.pickKind()
	ops := g.buf[:0]
	switch k {
	case kGet:
		for i := 0; i < batchOps; i++ {
			ops = append(ops, op{key: g.readKey()})
		}
	case kSet:
		for i := 0; i < batchOps; i++ {
			g.stamp++
			ops = append(ops, op{key: g.writeKey(), stamp: g.stamp})
		}
	case kRange:
		for i := 0; i < batchOps; i++ {
			ops = append(ops, op{key: g.rng.IntN(g.w.keys), rev: i%2 == 1})
		}
	case kTxn:
		for i := 0; i < txnBodies; i++ {
			g.stamp++
			ops = append(ops, op{group: g.rng.IntN(len(g.ks.groups)), stamp: g.stamp})
		}
	}
	g.buf = ops
	return batch{kind: k, ops: ops}
}

// rangeBounds returns the RANGE bounds for anchor key i: ascending
// ranges run from the anchor to the last key, descending ones from the
// first key to the anchor. want is the exact key sequence expected.
func rangeBounds(keys, anchor int, rev bool) (lo, hi int, want []int) {
	if rev {
		lo, hi = 0, anchor
		for k := anchor; k >= 0 && len(want) < rangeLimit; k-- {
			want = append(want, k)
		}
		return lo, hi, want
	}
	lo, hi = anchor, keys-1
	for k := anchor; k < keys && len(want) < rangeLimit; k++ {
		want = append(want, k)
	}
	return lo, hi, want
}

// zipfian is YCSB's Zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): rank 0 is the hottest key.
type zipfian struct {
	n                        int
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: n, theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
