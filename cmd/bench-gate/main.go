// bench-gate parses `go test -bench` output for the sustained-throughput
// benchmarks and enforces the batching PR's regression bars:
//
//   - every 10-layer two-node throughput benchmark (batched, delta or
//     not) must report 0 allocs/op — the wire batcher's frame encode and
//     the receiver's frame-walk decode live on the zero-allocation hot
//     path;
//   - the 8-member batched network runs must coalesce at least two
//     sub-packets per frame on average;
//   - cross-frame delta compression (the member default: 0xB9 chains +
//     adaptive flush) must at least halve the 8-member MACH workload's
//     bytes on the wire per message against the classic frame format
//     (BatchedCross bytes/msg <= 0.5x Batched); the BatchedDelta point
//     (0xB9, chaining off: every frame an anchor) must be present
//     alongside as the ablation that isolates what chaining buys;
//   - observability is free enough to leave on: the _Obs unit
//     benchmarks (registry + flight recorder live on the emit path) are
//     held to the same 0 allocs/op bar by the 10-layer scan, and the
//     8-member _Obs network run's obs-ratio (observed msgs/sec over
//     unobserved, measured back to back in one process) must be
//     >= 0.97;
//   - the multi-CCP dispatch family pays on mixed traffic: the mixed
//     workload's interpreted (full-stack) share under the full dispatch
//     family must be at most half the single-CCP baseline's on the
//     identical workload (BenchmarkMixedTraffic_MultiCCP interp-share
//     <= 0.5x BenchmarkMixedTraffic_SingleCCP);
//   - the member-count scaling sweep (_Scale_ points at 16/64/256, the
//     last a 16x16 hierarchy over the sharded scheduler) stays
//     deterministic — every point's identical metric must be 1 — and
//     holds a per-member throughput floor relative to the 16-member
//     point; the 256-member point may skip on machines under 4 cores
//     (the skip marker must then appear in the raw output);
//   - the stateful wire format stays deterministic: the XFrameIdentity
//     probe (8-member MACH, cross-frame delta + adaptive flush on, a
//     mid-run generation bump) must report identical=1 between Run and
//     RunConcurrent;
//   - the observability plane measures latency for free: the
//     histogram-instrumented _ObsHist unit benchmarks must exist, sample
//     their runs, and hold 0 allocs/op under the 10-layer scan; the
//     obs-ratio bar must hold with live histograms; and the SpanRecon
//     probe must map every delivered message of the 8-member netsim run
//     to a complete causal chain (spans > 0, spans-complete = 1).
//
// It optionally records the parsed numbers as a JSON trajectory file so
// the repository keeps a machine-readable history of the batching
// figures next to the PR that produced them, together with the host
// they were measured on (CPU model, nproc, GOMAXPROCS, Go version).
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkThroughput_' -benchtime 100x . > unit.out
//	go test -run xxx -bench 'BenchmarkThroughputNet_' -benchtime 150x . > net.out
//	go test -run xxx -bench 'BenchmarkMixedTraffic_' -benchtime 1x . > mixed.out
//	go run ./cmd/bench-gate -unit unit.out -net net.out -mixed mixed.out -out BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchCPU returns the CPU model go test prints in its bench header
// ("cpu: ..."), or "" when the output has none.
func benchCPU(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			return strings.TrimSpace(cpu)
		}
	}
	return ""
}

// result is one benchmark line's metrics, keyed by unit ("ns/op",
// "msgs/sec", "subs/frame", "B/op", "allocs/op", ...).
type result map[string]float64

// parseBench extracts benchmark lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkThroughput_10Layer_IMP-8  5000  1519 ns/op  658146 msgs/sec  1 B/op  0 allocs/op
func parseBench(data []byte) map[string]result {
	out := map[string]result{}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		r := result{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r[fields[i+1]] = v
		}
		if len(r) > 0 {
			out[name] = r
		}
	}
	return out
}

func sortedNames(m map[string]result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	unitPath := flag.String("unit", "", "two-node throughput bench output (BenchmarkThroughput_*)")
	netPath := flag.String("net", "", "N-member network bench output (BenchmarkThroughputNet_*)")
	mixedPath := flag.String("mixed", "", "mixed-traffic dispatch bench output (BenchmarkMixedTraffic_*)")
	outPath := flag.String("out", "", "optional JSON trajectory file to write")
	flag.Parse()

	unit := map[string]result{}
	net := map[string]result{}
	mixed := map[string]result{}
	netRaw := "" // raw text kept for SKIP-marker detection (Gate 6)
	cpu := "unknown"
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal("read %s: %v", path, err)
		}
		if c := benchCPU(data); c != "" {
			cpu = c
		}
		return data
	}
	if *unitPath != "" {
		unit = parseBench(read(*unitPath))
	}
	if *netPath != "" {
		data := read(*netPath)
		net = parseBench(data)
		netRaw = string(data)
	}
	if *mixedPath != "" {
		mixed = parseBench(read(*mixedPath))
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "bench-gate: FAIL: "+format+"\n", args...)
	}

	// Gate 1: the 10-layer two-node hot path allocates nothing, batched
	// included.
	tenLayer, batchedUnit := 0, 0
	for _, name := range sortedNames(unit) {
		if !strings.Contains(name, "_10Layer_") {
			continue
		}
		tenLayer++
		if strings.Contains(name, "Batched") {
			batchedUnit++
		}
		if allocs, ok := unit[name]["allocs/op"]; !ok {
			fail("%s reports no allocs/op (run with -benchmem or b.ReportAllocs)", name)
		} else if allocs != 0 {
			fail("%s allocates %.0f allocs/op, want 0", name, allocs)
		}
	}
	if *unitPath != "" {
		if tenLayer == 0 {
			fail("no 10-layer throughput benchmarks found in %s", *unitPath)
		}
		if batchedUnit == 0 {
			fail("no batched 10-layer throughput benchmarks found in %s", *unitPath)
		}
	}

	// Gate 2: the 8-member batched network runs really coalesce.
	netBatched8 := 0
	for _, name := range sortedNames(net) {
		if !strings.Contains(name, "Batched") || !strings.Contains(name, "8Members") {
			continue
		}
		netBatched8++
		if spf, ok := net[name]["subs/frame"]; !ok {
			fail("%s reports no subs/frame metric", name)
		} else if spf < 2 {
			fail("%s coalesced only %.2f subs/frame, want >= 2", name, spf)
		}
	}
	if *netPath != "" && netBatched8 == 0 {
		fail("no 8-member batched network benchmarks found in %s", *netPath)
	}

	// Gate 3: delta compression pays on the wire — and since the
	// cross-frame format landed, the bar is the full ladder: the member
	// default (cross-frame delta chains + adaptive flush) must halve the
	// classic format's bytes/msg. The gate trio is the 8-member MACH cast
	// workload at the minimum stamped payload (the header-dominated
	// regime compression targets), same harness all sides — only the
	// frame format differs. The BatchedDelta point (0xB9, chaining off)
	// must also be present, as the ablation between the two.
	const classicName = "BenchmarkThroughputNet_8Members_MACH_Seq_Batched"
	const deltaName = "BenchmarkThroughputNet_8Members_MACH_Seq_BatchedDelta"
	const crossName = "BenchmarkThroughputNet_8Members_MACH_Seq_BatchedCross"
	bytesRatio := 0.0
	deltaRatio := 0.0
	if *netPath != "" {
		classic, okC := net[classicName]["bytes/msg"]
		delta, okD := net[deltaName]["bytes/msg"]
		cross, okX := net[crossName]["bytes/msg"]
		switch {
		case !okC:
			fail("%s reports no bytes/msg metric", classicName)
		case !okD:
			fail("%s reports no bytes/msg metric", deltaName)
		case !okX:
			fail("%s reports no bytes/msg metric", crossName)
		case classic <= 0:
			fail("%s reports %.2f bytes/msg — nothing on the wire?", classicName, classic)
		default:
			deltaRatio = delta / classic
			bytesRatio = cross / classic
			if bytesRatio > 0.5 {
				fail("cross-frame delta saved only %.1f%% bytes/msg (%.2f vs %.2f), want >= 50%%",
					(1-bytesRatio)*100, cross, classic)
			}
		}
	}

	// Gate 4: the observability substrate is cheap enough to leave on.
	// The allocation half is already enforced: the _Obs unit benchmarks
	// carry the _10Layer_ tag, so Gate 1's scan holds them to 0
	// allocs/op. Here we require that they exist (so the scan cannot be
	// dodged by deleting them) and that the observed 8-member network
	// run kept at least 97% of the unobserved throughput.
	const obsNetName = "BenchmarkThroughputNet_8Members_MACH_Seq_BatchedDelta_Obs"
	obsRatio := 0.0
	obsUnit := 0
	for _, name := range sortedNames(unit) {
		if strings.Contains(name, "_10Layer_") && strings.HasSuffix(name, "_Obs") {
			obsUnit++
		}
	}
	if *unitPath != "" && obsUnit == 0 {
		fail("no observed (_Obs) 10-layer throughput benchmarks found in %s", *unitPath)
	}
	if *netPath != "" {
		if ratio, ok := net[obsNetName]["obs-ratio"]; !ok {
			fail("%s reports no obs-ratio metric", obsNetName)
		} else {
			obsRatio = ratio
			if obsRatio < 0.97 {
				fail("observability costs %.1f%% throughput (obs-ratio %.3f), want >= 0.97",
					(1-obsRatio)*100, obsRatio)
			}
		}
	}

	// Gate 5: the multi-CCP dispatch family halves the interpreted share
	// on mixed traffic. Both sides run the identical seeded workload —
	// only the engine's path family differs — so the ratio isolates what
	// the control-path specialization and profile-guided probe order buy.
	const singleName = "BenchmarkMixedTraffic_SingleCCP"
	const multiName = "BenchmarkMixedTraffic_MultiCCP"
	interpRatio := 0.0
	if *mixedPath != "" {
		single, okS := mixed[singleName]["interp-share"]
		multi, okM := mixed[multiName]["interp-share"]
		switch {
		case !okS:
			fail("%s reports no interp-share metric", singleName)
		case !okM:
			fail("%s reports no interp-share metric", multiName)
		case single <= 0:
			fail("%s reports interp-share %.3f — baseline routed nothing to the interpreter?", singleName, single)
		default:
			interpRatio = multi / single
			if interpRatio > 0.5 {
				fail("multi-CCP dispatch cut the interpreted share only %.1f%% (%.3f vs %.3f), want <= 0.5x",
					(1-interpRatio)*100, multi, single)
			}
			if ctrl, ok := mixed[multiName]["ctrl-compressed"]; !ok || ctrl == 0 {
				fail("%s compressed no control traffic (ctrl-compressed=%.0f)", multiName, ctrl)
			}
		}
	}

	// Gate 6: the member-count scaling sweep (16/64/256, the last as a
	// 16x16 hierarchy) stays byte-identical between Run and RunConcurrent
	// and keeps a per-member throughput floor relative to the 16-member
	// point of the same execution mode — the sweep's own small-member
	// baseline; the 8-member benchmarks above run a different stack and
	// harness (total order, per-round b.N scaling), so their msgs/sec is
	// not per-member comparable. All-cast rounds are O(N²)
	// deliveries, so per-member throughput falls superlinearly with N by
	// design; the floors are regression bars ~3-4x under the single-core
	// reference measurement (64: ratio ~0.012, 256: ratio ~1.3e-4), not
	// scalability targets. The 256-member point may legitimately skip on
	// machines under 4 cores (the benchmark bounds `make verify`'s wall
	// time there); the gate then requires the SKIP marker in the raw
	// output so a silently deleted benchmark still fails.
	const scale256Skip = "--- SKIP: BenchmarkThroughputNet_256Members"
	scalePoints := 0
	scale256Skipped := *netPath != "" && strings.Contains(netRaw, scale256Skip)
	scaleRatios := map[string]float64{}
	for _, name := range sortedNames(net) {
		if !strings.Contains(name, "_Scale_") {
			continue
		}
		scalePoints++
		if ident, ok := net[name]["identical"]; !ok {
			fail("%s reports no identical metric", name)
		} else if ident != 1 {
			fail("%s determinism probe failed (identical=%.0f): Run and RunConcurrent traces diverge", name, ident)
		}
	}
	if *netPath != "" {
		if scalePoints == 0 {
			fail("no _Scale_ network benchmarks found in %s", *netPath)
		}
		scaleFloors := []struct {
			members string
			floor   float64
		}{{"64Members", 0.003}, {"256Members", 0.00003}}
		for _, mode := range []string{"Seq", "Conc"} {
			base, ok := net["BenchmarkThroughputNet_16Members_Scale_"+mode]["msgs/sec-member"]
			if !ok || base <= 0 {
				fail("16-member scale point (%s) missing msgs/sec-member in %s", mode, *netPath)
				continue
			}
			for _, f := range scaleFloors {
				name := "BenchmarkThroughputNet_" + f.members + "_Scale_" + mode
				pm, ok := net[name]["msgs/sec-member"]
				if !ok {
					if f.members == "256Members" && scale256Skipped {
						continue // bounded-wall-time skip on a small machine
					}
					fail("%s missing from %s (and no skip marker)", name, *netPath)
					continue
				}
				ratio := pm / base
				scaleRatios[f.members+"_"+mode] = ratio
				if ratio < f.floor {
					fail("%s per-member throughput collapsed: %.3f msgs/sec-member vs %.1f at 16 members (ratio %.6f, floor %.6f)",
						name, pm, base, ratio, f.floor)
				}
			}
		}
	}

	// Gate 7: the stateful wire format did not cost determinism. The
	// XFrameIdentity probe runs the 8-member MACH workload with
	// cross-frame delta and adaptive flush on (plus a mid-run generation
	// bump) through Run and RunConcurrent and compares the cluster
	// delivery traces byte for byte.
	const xIdentName = "BenchmarkThroughputNet_8Members_MACH_XFrameIdentity"
	if *netPath != "" {
		if ident, ok := net[xIdentName]["identical"]; !ok {
			fail("%s reports no identical metric", xIdentName)
		} else if ident != 1 {
			fail("%s determinism probe failed (identical=%.0f): Run and RunConcurrent traces diverge under cross-frame delta", xIdentName, ident)
		}
	}

	// Gate 8: the observability plane measures latency, not just counts.
	// Three legs: (a) the histogram-instrumented _ObsHist unit benchmarks
	// exist (the _10Layer_ tag already holds them to 0 allocs/op in Gate
	// 1) and their histograms sampled the run (hist-p99-bytes > 0);
	// (b) the obs-ratio bar of Gate 4 still holds now that the observed
	// runners carry live histograms — re-asserted here so a Gate 4
	// regression under histograms reads as a Gate 8 failure too; (c) the
	// causal-trace reconstruction probe maps every delivered message of
	// the 8-member netsim run to a complete span (origin cast, wire out,
	// every receive, every ordered delivery).
	const spanReconName = "BenchmarkThroughputNet_8Members_MACH_SpanRecon"
	spanCount := 0.0
	obsHistUnit := 0
	for _, name := range sortedNames(unit) {
		if !strings.Contains(name, "_10Layer_") || !strings.HasSuffix(name, "_ObsHist") {
			continue
		}
		obsHistUnit++
		if p99, ok := unit[name]["hist-p99-bytes"]; !ok || p99 <= 0 {
			fail("%s histogram sampled nothing (hist-p99-bytes=%.0f)", name, p99)
		}
	}
	if *unitPath != "" && obsHistUnit == 0 {
		fail("no histogram-instrumented (_ObsHist) 10-layer throughput benchmarks found in %s", *unitPath)
	}
	if *netPath != "" {
		if obsRatio > 0 && obsRatio < 0.97 {
			fail("histogram-enabled observability costs %.1f%% throughput (obs-ratio %.3f), want >= 0.97",
				(1-obsRatio)*100, obsRatio)
		}
		spans, okS := net[spanReconName]["spans"]
		complete, okC := net[spanReconName]["spans-complete"]
		switch {
		case !okS || !okC:
			fail("%s reports no spans/spans-complete metrics", spanReconName)
		case spans <= 0:
			fail("%s reconstructed no spans from the flight dump", spanReconName)
		case complete != 1:
			fail("%s has incomplete causal chains (spans-complete=%.0f): some delivered message lacks its cast, wire, or delivery evidence", spanReconName, complete)
		default:
			spanCount = spans
		}
	}

	if *outPath != "" {
		doc := map[string]any{
			"pr":    10,
			"title": "Causal cross-member tracing, zero-alloc latency histograms, and a live telemetry plane",
			"date":  time.Now().Format("2006-01-02"),
			// The host the numbers were measured on. nproc and GOMAXPROCS
			// are read here; make bench-gate runs the benchmarks in the same
			// environment, so they match what the go test runs saw.
			"host": map[string]any{
				"cpu":        cpu,
				"nproc":      runtime.NumCPU(),
				"gomaxprocs": runtime.GOMAXPROCS(0),
				"go_version": runtime.Version(),
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
			},
			"method": "make bench-gate: go test -run xxx -bench BenchmarkThroughput_ -benchtime 100x (alloc gate), " +
				"-bench BenchmarkThroughputNet_ -benchtime 150x (coalescing + compression + obs-overhead + scaling gates; " +
				"the _Scale_ points run fixed round counts and the 256-member point skips under 4 cores unless " +
				"ENSEMBLE_SCALE_FORCE=1), and -bench BenchmarkMixedTraffic_ -benchtime 1x (dispatch-share gate); " +
				"parsed by cmd/bench-gate",
			"gates": map[string]any{
				"ten_layer_allocs_op":          0,
				"net_8members_subs_per_frame":  ">= 2",
				"xframe_bytes_per_msg_ratio":   "<= 0.5",
				"measured_bytes_per_msg_ratio": bytesRatio,
				"measured_delta_ratio":         deltaRatio,
				"xframe_identical":             1,
				"obs_throughput_ratio":         ">= 0.97",
				"measured_obs_ratio":           obsRatio,
				"interp_share_ratio":           "<= 0.5",
				"measured_interp_share_ratio":  interpRatio,
				"ten_layer_benchmarks":         tenLayer,
				"batched_unit_benchmarks":      batchedUnit,
				"observed_unit_benchmarks":     obsUnit,
				"batched_8member_net_variants": netBatched8,
				"scale_identical":              1,
				"scale_per_member_floor_64":    0.003,
				"scale_per_member_floor_256":   0.00003,
				"measured_scale_ratios":        scaleRatios,
				"scale_points":                 scalePoints,
				"scale_256_skipped":            scale256Skipped,
				"obshist_unit_benchmarks":      obsHistUnit,
				"span_recon_complete":          1,
				"measured_span_count":          spanCount,
			},
			"throughput":     unit,
			"net_throughput": net,
			"mixed_traffic":  mixed,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *outPath, err)
		}
		fmt.Printf("bench-gate: wrote %s\n", *outPath)
	}

	if failures > 0 {
		os.Exit(1)
	}
	scale256 := "measured"
	if scale256Skipped {
		scale256 = "skipped (<4 cores)"
	}
	fmt.Printf("bench-gate: OK (%d ten-layer benchmarks at 0 allocs/op incl. %d observed and %d histogram-instrumented, %d batched 8-member net runs >= 2 subs/frame, xframe bytes/msg ratio %.3f (unchained delta %.3f), obs-ratio %.3f, interp-share ratio %.3f, %d scale points identical, xframe identity OK, %.0f causal spans complete, 256-member point %s)\n",
		tenLayer, obsUnit, obsHistUnit, netBatched8, bytesRatio, deltaRatio, obsRatio, interpRatio, scalePoints, spanCount, scale256)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-gate: "+format+"\n", args...)
	os.Exit(1)
}
