package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostFacts are recorded in every result, so numbers from different
// machines or toolchains are never compared unknowingly.
type hostFacts struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	OS           string `json:"os"`
	Arch         string `json:"arch"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func readHost(commit, digest string) hostFacts {
	return hostFacts{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		Commit:       commit,
		SourceDigest: digest,
	}
}

// cpuModel reads the processor name the kernel reports ("unknown" where
// /proc/cpuinfo does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
