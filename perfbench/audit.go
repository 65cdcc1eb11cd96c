package main

import "fmt"

// auditKeys reads every key back with pipelined MGETs once the load has
// stopped. Each value must encode its own key; on ownHalf workloads it
// must be exactly the owning connection's last acknowledged write, or
// the preload value for a key never written. It returns the number of
// keys checked.
func auditKeys(addr string, w workload, acked map[int]string, errs *errLog) (uint64, error) {
	cl, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	const chunk, depth = 256, 8
	var r reply
	args := make([]string, 0, chunk+1)
	for base := 0; base < w.keys; base += chunk * depth {
		sent := 0
		for s := base; s < w.keys && sent < depth; s += chunk {
			args = append(args[:0], "MGET")
			for i := s; i < s+chunk && i < w.keys; i++ {
				args = append(args, keyName(i))
			}
			cl.send(args...)
			sent++
		}
		if err := cl.flush(); err != nil {
			return 0, err
		}
		for j := 0; j < sent; j++ {
			if err := cl.read(&r); err != nil {
				return 0, err
			}
			first := base + j*chunk
			n := min(chunk, w.keys-first)
			if r.typ != '*' || len(r.elems) != n {
				errs.add("audit", "audit MGET at %s: %s", keyName(first), &r)
				continue
			}
			for i := 0; i < n; i++ {
				k, e := first+i, &r.elems[i]
				if !checkGet(k, e, errs) || !w.ownHalf {
					continue
				}
				want, ok := acked[k]
				if !ok {
					want = value(k, "p", 0)
				}
				if string(e.str) != want {
					errs.add("audit", "audit %s: holds %q, last acknowledged %q", keyName(k), e.str, want)
				}
			}
		}
	}
	return uint64(w.keys), nil
}

// auditGroups MGETs every txn group: a group is only ever written whole
// by one MULTI body, so its keys must show one uniform writer stamp. It
// returns the number of groups checked.
func auditGroups(addr string, ks [conns]keyspace, errs *errLog) (uint64, error) {
	cl, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	var r reply
	var n uint64
	args := make([]string, 0, txnKeys+1)
	for c := range ks {
		groups := ks[c].groups
		const depth = 64
		for base := 0; base < len(groups); base += depth {
			end := min(base+depth, len(groups))
			for _, g := range groups[base:end] {
				args = append(args[:0], "MGET")
				for _, k := range g {
					args = append(args, keyName(k))
				}
				cl.send(args...)
			}
			if err := cl.flush(); err != nil {
				return n, err
			}
			for _, g := range groups[base:end] {
				if err := cl.read(&r); err != nil {
					return n, err
				}
				n++
				if msg := groupTorn(g, &r); msg != "" {
					errs.add("group", "txn group %v: %s", g, msg)
				}
			}
		}
	}
	return n, nil
}

// groupTorn reports why an MGET of group g does not show one uniform
// stamp, or "" when it does.
func groupTorn(g []int, r *reply) string {
	if r.typ != '*' || len(r.elems) != len(g) {
		return fmt.Sprintf("MGET reply %s", r)
	}
	var first parsedValue
	for i, k := range g {
		pv, ok := parseValue(r.elems[i].str)
		if r.elems[i].null || !ok || pv.key != keyName(k) {
			return fmt.Sprintf("malformed value %q", r.elems[i].str)
		}
		if i == 0 {
			first = pv
		} else if pv.writer != first.writer || pv.stamp != first.stamp {
			return fmt.Sprintf("torn: %s holds %s/%d, %s holds %s/%d",
				keyName(g[0]), first.writer, first.stamp, keyName(k), pv.writer, pv.stamp)
		}
	}
	return ""
}
