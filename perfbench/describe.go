package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON is the BENCHMARK.json at the repository root, generated
// from the workload and metric tables so the two cannot drift.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchE2E      `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

func benchmarkDefinition() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, benchE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, benchLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

// describeBenchmark prints BENCHMARK.json.
func describeBenchmark(w io.Writer) int {
	data, err := json.MarshalIndent(benchmarkDefinition(), "", "  ")
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}

// printLayerMap prints, for every per-layer metric, which end-to-end
// metric it should move and on which workload.
func printLayerMap(w io.Writer) {
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-36s -> %s\n", d.Name, d.Moves)
	}
}
