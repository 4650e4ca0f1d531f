package main

import (
	"syscall"
	"time"
)

// cost is what a timed phase took: wall time, and the process's CPU time
// (user + system, every thread, so the collector's share counts). The
// gated figures use CPU time: on a shared virtual machine the wall time
// of the same run moves by tens of percent with the neighbours' load
// (stolen time), which CPU time leaves out.
type cost struct{ wall, cpu time.Duration }

func (c cost) add(o cost) cost { return cost{c.wall + o.wall, c.cpu + o.cpu} }

// stopwatch starts timing a phase.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() cost { return cost{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
