package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// mvkvdBin is the daemon the tests drive, built once by TestMain.
var mvkvdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mvkvdBin = filepath.Join(dir, "mvkvd")
	out, err := exec.Command("go", "build", "-o", mvkvdBin, "mvrlu/cmd/mvkvd").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build mvkvd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyConfig is a run of w short enough for a unit test.
func tinyConfig(t *testing.T, w workload, out *bytes.Buffer) config {
	return config{
		w:       w,
		seed:    7,
		window:  time.Second,
		warmup:  100 * time.Millisecond,
		mvkvd:   mvkvdBin,
		work:    t.TempDir(),
		rounds:  2,
		replay:  200 * time.Millisecond,
		walProb: 200 * time.Millisecond,
		out:     out,
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for _, m := range r.metrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}

// TestTinyRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and checks each prints exactly the metrics BENCHMARK.json
// names, all measured, with every reply correct.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				cfg := tinyConfig(t, w, &out)
				run, want := runEndToEnd, endToEnd
				if traced {
					run, want = runLayers, perLayer
				}
				res, err := run(cfg)
				if err == nil {
					err = res.validate()
				}
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if got := metricNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics\n got %v\nwant %v", got, want)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("failed %d of %d attempted\n%s", res.failed, res.attempted, out.String())
				}
			})
		}
	}
}

// plantRun runs w end to end with plant applied after the preload and
// returns the result and report.
func plantRun(t *testing.T, w workload, plant func(addr string) error) (*result, string) {
	var out bytes.Buffer
	cfg := tinyConfig(t, w, &out)
	cfg.plant = plant
	res, err := runEndToEnd(cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	return res, out.String()
}

// setAll overwrites keys through one pipelined connection.
func setAll(addr string, kv map[int]string) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	for k, v := range kv {
		cl.send("SET", keyName(k), v)
	}
	if err := cl.flush(); err != nil {
		return err
	}
	var r reply
	for range kv {
		if err := cl.read(&r); err != nil {
			return err
		}
	}
	return nil
}

// TestPlantedCorruptGetRaisesErrors stores, under every key, a value
// that encodes a different key: the GET and RANGE checks must fail.
func TestPlantedCorruptGetRaisesErrors(t *testing.T) {
	w, _ := findWorkload("idx-scan")
	res, report := plantRun(t, w, func(addr string) error {
		kv := map[int]string{}
		for i := 0; i < w.keys; i++ {
			kv[i] = value((i+1)%w.keys, "p", 0)
		}
		return setAll(addr, kv)
	})
	if res.failed == 0 {
		t.Fatalf("corrupt values went unnoticed\n%s", report)
	}
	if !strings.Contains(report, "GET ") {
		t.Errorf("no GET check failed\n%s", report)
	}
}

// TestPlantedTornGroupRaisesErrors rewrites one key of every txn group
// with a foreign stamp: the group audit must report the groups torn.
func TestPlantedTornGroupRaisesErrors(t *testing.T) {
	w, _ := findWorkload("idx-scan")
	ks := layout(w)
	res, report := plantRun(t, w, func(addr string) error {
		kv := map[int]string{}
		for c := range ks {
			for _, g := range ks[c].groups {
				kv[g[0]] = value(g[0], writerName(c), 1<<40)
			}
		}
		return setAll(addr, kv)
	})
	if res.failed == 0 {
		t.Fatalf("torn groups went unnoticed\n%s", report)
	}
	if !strings.Contains(report, "torn") {
		t.Errorf("no group reported torn\n%s", report)
	}
}
