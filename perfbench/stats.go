package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the p-quantile of xs with linear interpolation
// between order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or NaN when b is zero, so a missing denominator shows as
// a failed metric instead of a silent zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// scrape is one reading of the daemon's METRICS exposition, summed
// over label sets. Every series there is an atomic read, so it may be
// taken under full load.
type scrape struct {
	at      time.Time
	series  map[string]float64             // sample name -> sum over label sets
	buckets map[string]map[float64]float64 // histogram -> le -> cumulative count
	shards  []float64                      // server_shard_commands_total by shard
}

func takeMetrics(addr string) (*scrape, error) {
	text, err := command(addr, "METRICS")
	if err != nil {
		return nil, err
	}
	s := &scrape{
		at:      time.Now(),
		series:  map[string]float64{},
		buckets: map[string]map[float64]float64{},
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if strings.HasSuffix(name, "_bucket") {
			le, err := parseLE(labels)
			if err != nil {
				return nil, err
			}
			h := strings.TrimSuffix(name, "_bucket")
			if s.buckets[h] == nil {
				s.buckets[h] = map[float64]float64{}
			}
			s.buckets[h][le] += v
			continue
		}
		if name == "server_shard_commands_total" {
			s.shards = append(s.shards, v)
		}
		s.series[name] += v
	}
	return s, nil
}

// takeInfo reads the quiescent engine stats of INFO ALL (commits and
// aborts exist only there), summed over the shards' sections. INFO ALL
// checks out every pool handle, so it is taken only while no load runs.
func takeInfo(addr string) (map[string]float64, error) {
	text, err := command(addr, "INFO", "ALL")
	if err != nil {
		return nil, err
	}
	info := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok {
			continue
		}
		if k == "engine_stats" && v == "busy" {
			return nil, fmt.Errorf("INFO ALL: engine stats busy")
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			info[k] += f
		}
	}
	return info, nil
}

func parseLE(labels string) (float64, error) {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return 0, fmt.Errorf("bucket without le label: %s", labels)
	}
	rest := labels[i+4:]
	v := rest[:strings.IndexByte(rest, '"')]
	if v == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(v, 64)
}

// delta is how much series name grew from a to b.
func delta(a, b *scrape, name string) float64 { return b.series[name] - a.series[name] }

// histMean is the mean of the observations histogram h received between
// a and b.
func histMean(a, b *scrape, h string) float64 {
	return ratio(delta(a, b, h+"_sum"), delta(a, b, h+"_count"))
}

// histQuantile is the p-quantile of the observations histogram h
// received between a and b, interpolated linearly inside the
// power-of-two bucket that holds it.
func histQuantile(a, b *scrape, h string, p float64) float64 {
	les := make([]float64, 0, len(b.buckets[h]))
	for le := range b.buckets[h] {
		les = append(les, le)
	}
	sort.Float64s(les)
	cum := make([]float64, len(les))
	for i, le := range les {
		cum[i] = b.buckets[h][le] - a.buckets[h][le]
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return math.NaN()
	}
	target := p * cum[len(cum)-1]
	prevCum, prevLE := 0.0, -1.0
	for i, le := range les {
		if cum[i] >= target && cum[i] > prevCum {
			if math.IsInf(le, 1) {
				return prevLE
			}
			frac := (target - prevCum) / (cum[i] - prevCum)
			return prevLE + 1 + frac*(le-prevLE-1)
		}
		prevCum, prevLE = cum[i], le
	}
	return prevLE
}
