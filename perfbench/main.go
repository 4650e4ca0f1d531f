// Command perfbench is the repository's benchmark: it drives one named
// workload through core, netsim, opt and transport on a sequential
// cluster run, checks every output, and prints every metric by name
// with its unit. The last line of its standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload alltoall8 --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --trace 0
//	perfbench --diff old.json new.json
//	perfbench --describe      (prints BENCHMARK.json)
//	perfbench --layer-map     (which end-to-end metric each layer metric moves)
//
// --trace 0 reports the end-to-end metrics of untraced episodes;
// --trace 1 alternates untraced and traced episodes and reports the
// per-layer metrics. Run it through run.py, which builds it from the
// checkout's sources.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"ensemble/internal/opt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is what one run records: the printed metrics plus everything
// needed to explain or compare them later.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Host       hostFacts              `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Notes      []string               `json:"notes,omitempty"`
	Episodes   int                    `json:"episodes"`
	MsgsPerS   []float64              `json:"episode_msgs_per_wall_s"`
	MsgsPerCPU []float64              `json:"episode_msgs_per_cpu_s"`
	SetupS     []float64              `json:"setup_cpu_s_samples"`
	SetupWallS []float64              `json:"setup_wall_s_samples"`
	Det        detCounts              `json:"deterministic"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// printed is the last stdout line, the driver-facing contract.
type printed struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload name, or all to run every workload in turn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "source revision, recorded in the result")
	digest := fs.String("source-digest", "", "digest of the sources; keys the cross-run determinism record")
	diff := fs.Bool("diff", false, "compare two result files (args: old new) and rank the per-layer changes")
	describe := fs.Bool("describe", false, "print the benchmark definition (BENCHMARK.json)")
	layerMap := fs.Bool("layer-map", false, "print which end-to-end metric each per-layer metric should move")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --diff needs two result files")
			return 2
		}
		if err := runDiff(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *describe:
		return describeBenchmark(stdout)
	case *layerMap:
		printLayerMap(stdout)
		return 0
	}
	selected := workloads
	if *wname != "all" {
		w := findWorkload(*wname)
		if w == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, or all)\n", *wname, workloadNames())
			return 2
		}
		selected = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	code := 0
	for _, w := range selected {
		res, tr, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.Host = readHost(*commit, *digest)
		if *digest != "" {
			if err := checkRepeat(outDir, *digest, res); err != nil {
				res.Notes = append(res.Notes, err.Error())
				res.Correct = false
			}
		}
		if err := writeOutputs(outDir, res, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing outputs:", err)
		}
		report(stdout, res)
		if !res.Correct {
			for _, n := range res.Notes {
				fmt.Fprintln(stderr, "perfbench: FAIL:", n)
			}
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// outDir holds the result, span and determinism records, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// minEpisodes keeps the medians meaningful when --seconds is short.
const minEpisodes = 3

// measure runs a warm-up episode, then episodes until the measurement
// time is used up (at least minEpisodes; with tracing, pairs of one
// untraced and one traced episode), and reduces them to metrics.
func measure(w *workload, seed int64, seconds time.Duration, traced bool, fault faultFn) (*result, *tracer, error) {
	res := &result{Workload: w.name, Seed: seed, Correct: true}
	if traced {
		res.Trace = 1
	}
	// Warm-up (checked, not measured): lazily built codecs and compiled
	// paths, heap growth.
	warm, err := runEpisode(w, seed, nil, fault)
	if err != nil {
		return nil, nil, err
	}
	var plain, withTrace []*episode
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	for len(plain) < minEpisodes || time.Since(start) < seconds {
		ep, err := runEpisode(w, seed, nil, fault)
		if err != nil {
			return nil, nil, err
		}
		for i := 1; !traced && i < w.setupReps; i++ {
			dt, err := timeSetup(w, seed)
			if err != nil {
				return nil, nil, err
			}
			ep.setup = append(ep.setup, dt)
		}
		plain = append(plain, ep)
		if traced {
			ep, err := runEpisode(w, seed, tr, fault)
			if err != nil {
				return nil, nil, err
			}
			withTrace = append(withTrace, ep)
		}
	}
	ref := plain[0]
	for i, ep := range append(append([]*episode{warm}, plain...), withTrace...) {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		res.Notes = append(res.Notes, ep.notes...)
		if !reflect.DeepEqual(ep.det, ref.det) {
			res.Correct = false
			res.Notes = append(res.Notes, fmt.Sprintf("deterministic counts drifted in episode %d (traced=%v): %s",
				i, ep.traced, detDiff(ref.det, ep.det)))
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Episodes = 1 + len(plain) + len(withTrace)
	res.Det = ref.det
	for _, ep := range plain {
		res.MsgsPerS = append(res.MsgsPerS, ep.rate(false))
		res.MsgsPerCPU = append(res.MsgsPerCPU, ep.rate(true))
		for _, c := range ep.setup {
			res.SetupS = append(res.SetupS, c.cpu.Seconds())
			res.SetupWallS = append(res.SetupWallS, c.wall.Seconds())
		}
	}
	if traced {
		res.Metrics = metricSet(perLayer, layerMetrics(w, plain, withTrace, tr, res))
	} else {
		res.Metrics = metricSet(endToEnd, endToEndMetrics(plain, res.SetupS))
	}
	return res, tr, nil
}

func endToEndMetrics(eps []*episode, setups []float64) map[string]float64 {
	d := eps[0].det
	v := map[string]float64{
		"msgs_per_cpu_s": median(values(eps, func(e *episode) float64 { return e.rate(true) })),
		"vlat_p50_us":    d.VlatP50Us,
		"vlat_p99_us":    d.VlatP99Us,
		"bytes_per_msg":  float64(d.BytesOnWire) / float64(d.Messages),
		"live_heap_mb":   median(values(eps, func(e *episode) float64 { return float64(e.heapBytes) / (1 << 20) })),
		"setup_s":        median(setups),
	}
	return v
}

func layerMetrics(w *workload, plain, traced []*episode, tr *tracer, res *result) map[string]float64 {
	d := plain[0].det
	msgs := float64(d.Messages)
	v := map[string]float64{}
	q := func(name string, s spanName, scale float64) {
		v[name+".p50"] = tr.dur[s].quantile(0.50) / scale
		v[name+".p99"] = tr.dur[s].quantile(0.99) / scale
	}
	q("core.cast_ns", spanCast, 1)
	q("core.recv_ns", spanRecv, 1)
	q("core.tick_ns", spanTick, 1)
	q("transport.flush_ns", spanFlush, 1)
	v["netsim.send_ns.p50"] = tr.dur[spanSend].quantile(0.50)
	if tr.wallNs > 0 {
		v["core.busy_frac"] = float64(tr.busyNs) / float64(tr.wallNs)
		v["netsim.sched_frac"] = 1 - v["core.busy_frac"]
	}
	v["core.recv_per_msg"] = float64(tr.count[spanRecv]) / (msgs * float64(len(traced)))

	// Measured on every workload: scale64 runs no engine, so a change
	// to engine construction should move setup_s only on the others.
	var builds []float64
	for i := 0; i < 5; i++ {
		dt, err := buildEngineOnce(w)
		if err != nil {
			res.Notes = append(res.Notes, "opt.NewEngine: "+err.Error())
			break
		}
		builds = append(builds, float64(dt)/1e6)
	}
	v["opt.build_ms"] = median(builds)
	var hits, spec int64
	for p := opt.PathID(0); p < opt.NumPaths; p++ {
		v["opt.path."+p.String()+".hits"] = float64(d.PathHits[p])
		v["opt.path."+p.String()+".misses"] = float64(d.PathMisses[p])
		hits += d.PathHits[p]
		if p != opt.PathFullStack {
			spec += d.PathHits[p]
		}
	}
	if hits > 0 {
		v["opt.hit_frac"] = float64(spec) / float64(hits)
		v["opt.interp_frac"] = float64(d.PathHits[opt.PathFullStack]) / float64(hits)
	}
	if total := tr.cpu.total(); total > 0 {
		for _, b := range cpuBuckets {
			v["cpu."+b] = float64(tr.cpu[b]) / float64(total)
		}
	}
	if tr.profErr != nil {
		res.Notes = append(res.Notes, "cpu profile: "+tr.profErr.Error())
	}
	b := d.Batch
	if b.Frames > 0 {
		v["transport.subs_per_frame"] = float64(b.SubPackets) / float64(b.Frames)
	}
	if b.SubPackets > 0 {
		v["transport.delta_frac"] = float64(b.DeltaSubs) / float64(b.SubPackets)
	}
	v["transport.frames_per_msg"] = float64(b.Frames) / msgs
	v["transport.flush.size"] = float64(b.SizeFlushes)
	v["transport.flush.entry_end"] = float64(b.EntryEndFlushes)
	v["transport.flush.barrier"] = float64(b.BarrierFlushes)
	v["transport.flush.held"] = float64(b.Holds)
	v["transport.hold_us.p99"] = tr.holdNs.quantile(0.99) / 1e3
	v["netsim.pkts_per_msg"] = float64(d.NetSent) / msgs
	v["netsim.dropped"] = float64(d.NetDropped)
	v["netsim.duplicated"] = float64(d.NetDuplicated)
	v["event.allocs_per_msg"] = median(values(plain, func(e *episode) float64 { return float64(e.mallocs) / msgs }))
	v["event.pool_news_per_msg"] = median(values(plain, func(e *episode) float64 { return float64(e.poolNews) / msgs }))
	v["membership.view_change_ms"] = float64(d.ViewChangeNs) / 1e6
	v["membership.view_pkts"] = float64(d.ViewPkts)
	v["membership.view_bytes"] = float64(d.ViewBytes)
	v["collect.stable_lag_ms"] = float64(d.StableLagNs) / 1e6
	plainRate := median(values(plain, func(e *episode) float64 { return e.rate(true) }))
	tracedRate := median(values(traced, func(e *episode) float64 { return e.rate(true) }))
	v["trace.overhead_frac"] = 1 - tracedRate/plainRate
	return v
}

func values(eps []*episode, f func(*episode) float64) []float64 {
	out := make([]float64, len(eps))
	for i, e := range eps {
		out[i] = f(e)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// detDiff names the deterministic fields that differ.
func detDiff(a, b detCounts) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diffs []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return strings.Join(diffs, "; ")
}

// checkRepeat compares the run's deterministic counts with those an
// earlier run of the same sources, workload and seed recorded (traced
// or not), and records them when this is the first such run.
func checkRepeat(dir, digest string, res *result) error {
	path := filepath.Join(dir, "det", fmt.Sprintf("%s-%s-%d.json", digest, res.Workload, res.Seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev detCounts
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %v", path, err)
		}
		if !reflect.DeepEqual(prev, res.Det) {
			return fmt.Errorf("deterministic counts differ from an earlier run of seed %d: %s", res.Seed, detDiff(prev, res.Det))
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, _ := json.Marshal(res.Det)
	// Write then rename, so a concurrent run never reads half a record.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".det-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func writeOutputs(dir string, res *result, tr *tracer) error {
	rdir := filepath.Join(dir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rdir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace)), data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	sdir := filepath.Join(dir, "spans")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return err
	}
	return tr.writeSpans(filepath.Join(sdir, res.Workload+".jsonl"))
}

// report prints the host, one line per metric, and the result line.
func report(w io.Writer, res *result) {
	h, _ := json.Marshal(res.Host)
	fmt.Fprintf(w, "host %s\n", h)
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d episodes, %d messages each, vlat samples %d, %.6g msgs per wall second (not gated)\n",
		res.Workload, res.Seed, res.Trace, res.Episodes, res.Det.Messages, res.Det.VlatSamples, median(res.MsgsPerS))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(printed{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
