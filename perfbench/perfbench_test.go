package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tiny returns a copy of the named workload cut to a few rounds.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	c := *w
	c.rounds = 40
	if c.leave {
		c.rounds = 2
	}
	c.setupReps = 2
	return &c
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			tw := tiny(t, w.name)
			for _, traced := range []bool{false, true} {
				res, tr, err := measure(tw, 7, 0, traced, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d notes=%v",
						traced, res.Correct, res.Failed, res.Attempted, res.Notes)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
					if tr == nil || len(tr.spans) == 0 {
						t.Fatal("traced run recorded no spans")
					}
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Fatalf("metric %s missing or wrong unit: %+v", d.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if traced && w.leave && res.Metrics["membership.view_change_ms"].Value <= 0 {
					t.Error("no view change measured on a leave workload")
				}
				if traced && res.Metrics["opt.build_ms"].Value <= 0 {
					t.Errorf("no engine build time: %v", res.Notes)
				}
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	var setup bool
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("bad name or unit: %q %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("duplicate metric %s", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds")
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric named for it to move", d.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestPrintedResultLine checks the driver-facing last line: exactly the
// four keys, every metric with a value and a unit.
func TestPrintedResultLine(t *testing.T) {
	res := &result{Workload: "x", Correct: true, Attempted: 3,
		Metrics: metricSet(endToEnd, map[string]float64{"msgs_per_cpu_s": 1.5})}
	var out bytes.Buffer
	report(&out, res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if _, ok := m["value"].(float64); !ok || m["unit"] == "" || len(m) != 2 {
			t.Errorf("metric %s: %v", name, m)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesTables keeps the committed BENCHMARK.json in
// step with the workload and metric tables (regenerate it with
// `python3 perfbench/run.py --describe > BENCHMARK.json`).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var committed, generated any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	describeBenchmark(&out)
	if err := json.Unmarshal(out.Bytes(), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it:\n%s", out.String())
	}
}

// dropNth drops member 1's n-th delivery.
func dropNth(n int) faultFn {
	return func(rank int, deliver func(int, []byte)) func(int, []byte) {
		if rank != 1 {
			return deliver
		}
		k := 0
		return func(origin int, payload []byte) {
			k++
			if k != n {
				deliver(origin, payload)
			}
		}
	}
}

// swapNth holds member 1's n-th delivery back until the next delivery
// of the same kind from the same origin has been handed over.
func swapNth(n int) faultFn {
	return func(rank int, deliver func(int, []byte)) func(int, []byte) {
		if rank != 1 {
			return deliver
		}
		k := 0
		var held []byte
		var heldOrigin, heldKind int
		return func(origin int, payload []byte) {
			k++
			kind, _, _ := splitID(binary.LittleEndian.Uint64(payload[8:]))
			switch {
			case k == n:
				held, heldOrigin, heldKind = append([]byte(nil), payload...), origin, kind
			case held != nil && origin == heldOrigin && kind == heldKind:
				deliver(origin, payload)
				deliver(heldOrigin, held)
				held = nil
			default:
				deliver(origin, payload)
			}
		}
	}
}

func TestInjectedFaultRaisesFailures(t *testing.T) {
	for _, name := range []string{"alltoall8", "lossy_mixed8"} {
		for fname, f := range map[string]faultFn{"drop": dropNth(5), "reorder": swapNth(5)} {
			res, _, err := measure(tiny(t, name), 3, 0, false, f)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s with an injected %s: correct=%v failed=%d", name, fname, res.Correct, res.Failed)
			}
			var out bytes.Buffer
			report(&out, res)
			if !strings.Contains(out.String(), `"correct":false`) {
				t.Errorf("%s/%s: printed result does not say correct=false", name, fname)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--workload", "alltoall8", "--trace", "2"}, &out, &errb); code == 0 {
		t.Error("--trace 2 accepted")
	}
	if strings.Contains(out.String(), "correct") {
		t.Error("a rejected run printed a result")
	}
}

func TestRepeatRecordFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	res := &result{Workload: "w", Seed: 9, Det: detCounts{Messages: 10, BytesOnWire: 99}}
	if err := checkRepeat(dir, "abc", res); err != nil {
		t.Fatal(err)
	}
	if err := checkRepeat(dir, "abc", res); err != nil {
		t.Fatalf("identical counts flagged: %v", err)
	}
	res.Det.BytesOnWire++
	if err := checkRepeat(dir, "abc", res); err == nil || !strings.Contains(err.Error(), "BytesOnWire") {
		t.Fatalf("drift not flagged: %v", err)
	}
}

func TestDiffNamesTheLayerThatMovedMost(t *testing.T) {
	mk := func(vals map[string]float64) *result {
		return &result{Metrics: metricSet(perLayer, vals)}
	}
	old := mk(map[string]float64{"cpu.layers.mnak": 0.20, "core.recv_ns.p50": 1000, "opt.hit_frac": 0.5})
	cur := mk(map[string]float64{"cpu.layers.mnak": 0.30, "core.recv_ns.p50": 1100, "opt.hit_frac": 0.5})
	ch := rankChanges(old, cur)
	if len(ch) != 2 || ch[0].name != "cpu.layers.mnak" || !ch[0].worse || layerOf(ch[0].name) != "mnak" {
		t.Fatalf("changes %+v", ch)
	}
	dir := t.TempDir()
	for name, r := range map[string]*result{"old.json": old, "new.json": cur} {
		data, _ := json.Marshal(r)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := runDiff(filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "layer that moved most: mnak") {
		t.Fatalf("diff output:\n%s", out.String())
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile busy:", err)
	}
	sink := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		sink += burn(1000)
	}
	pprof.StopCPUProfile()
	c := cpuShares{}
	if err := c.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total() == 0 || c["bench"] == 0 {
		t.Fatalf("shares %v (sink %d)", c, sink)
	}
	if got := bucketOf("ensemble/internal/layers.(*collectState).recompute", "/x/internal/layers/collect.go"); got != "layers.collect" {
		t.Errorf("collect frame -> %q", got)
	}
	if got := bucketOf("ensemble/internal/netsim.(*shard).routePhase", "/x/internal/netsim/shard.go"); got != "netsim" {
		t.Errorf("netsim frame -> %q", got)
	}
}

//go:noinline
func burn(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}
