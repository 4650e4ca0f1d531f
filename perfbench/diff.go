package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// loadResult reads a result file written by a run, or a saved standard
// output whose last JSON line is the printed result.
func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err == nil && r.Metrics != nil {
		return &r, nil
	}
	var last *result
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var p result
		if json.Unmarshal(sc.Bytes(), &p) == nil && p.Metrics != nil {
			last = &p
		}
	}
	if last == nil {
		return nil, fmt.Errorf("%s: no result with metrics", path)
	}
	return last, nil
}

// layerOf names the layer a metric belongs to: the module for most, the
// protocol layer for cpu.layers.*.
func layerOf(name string) string {
	name = strings.TrimPrefix(name, "cpu.")
	name = strings.TrimPrefix(name, "layers.")
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

type change struct {
	name     string
	old, new float64
	rel      float64 // (new-old)/|old|; ±Inf when old is 0
	worse    bool
}

// cpuNoiseFloor is the CPU share below which a layer's profile samples
// are too few for a relative change to mean anything.
const cpuNoiseFloor = 0.01

// rankChanges lists every metric present in both results with a nonzero
// change, largest relative change first (CPU shares below the noise
// floor on both sides are left out).
func rankChanges(old, new *result) []change {
	better := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		better[d.Name] = d.Better
	}
	var out []change
	for name, ov := range old.Metrics {
		nv, ok := new.Metrics[name]
		if !ok || nv.Value == ov.Value {
			continue
		}
		if strings.HasPrefix(name, "cpu.") && math.Max(ov.Value, nv.Value) < cpuNoiseFloor {
			continue
		}
		c := change{name: name, old: ov.Value, new: nv.Value}
		if ov.Value == 0 {
			c.rel = math.Inf(1)
			if nv.Value < 0 {
				c.rel = math.Inf(-1)
			}
		} else {
			c.rel = (nv.Value - ov.Value) / math.Abs(ov.Value)
		}
		up := nv.Value > ov.Value
		c.worse = (better[name] == "lower") == up
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].rel), math.Abs(out[j].rel)
		if ai != aj {
			return ai > aj
		}
		return out[i].name < out[j].name
	})
	return out
}

func runDiff(oldPath, newPath string, w io.Writer) error {
	old, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return err
	}
	if old.Host != (hostFacts{}) && cur.Host != (hostFacts{}) &&
		(old.Host.CPUModel != cur.Host.CPUModel || old.Host.NumCPU != cur.Host.NumCPU || old.Host.GOMAXPROCS != cur.Host.GOMAXPROCS) {
		fmt.Fprintf(w, "warning: different hosts (%s, %d cpus) vs (%s, %d cpus)\n",
			old.Host.CPUModel, old.Host.NumCPU, cur.Host.CPUModel, cur.Host.NumCPU)
	}
	if old.Workload != cur.Workload {
		fmt.Fprintf(w, "warning: different workloads %s vs %s\n", old.Workload, cur.Workload)
	}
	moves := map[string]string{}
	for _, d := range perLayer {
		moves[d.Name] = d.Moves
	}
	changes := rankChanges(old, cur)
	if len(changes) == 0 {
		fmt.Fprintln(w, "no metric changed")
		return nil
	}
	fmt.Fprintf(w, "%-36s %14s %14s %9s  %-6s %s\n", "metric", "old", "new", "change", "", "should move")
	for _, c := range changes {
		verdict := "better"
		if c.worse {
			verdict = "worse"
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %+8.1f%%  %-6s %s\n", c.name, c.old, c.new, 100*c.rel, verdict, moves[c.name])
	}
	for _, c := range changes {
		if _, isLayer := moves[c.name]; isLayer && c.name != "trace.overhead_frac" {
			fmt.Fprintf(w, "layer that moved most: %s (%s %+.1f%%)\n", layerOf(c.name), c.name, 100*c.rel)
			break
		}
	}
	return nil
}
