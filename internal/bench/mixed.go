package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
)

// The mixed-traffic workload exercises every dispatch path at once:
// members ring-send to their successors every round (pt2pt send path —
// and, because the sends flow one way around the ring, the receivers'
// piggyback windows never reset and explicit acknowledgments fire),
// cast periodically (data-cast paths), and the lossy link forces
// retransmission sweeps (control retransmission path, plus CCP misses
// when a duplicate arrives after the gap closed). It runs on the FIFO
// stack, whose traffic is exactly this mix — the 10-layer stack's
// sequencer and stability gossip would add interpreted control traffic
// the dispatch family deliberately leaves alone (see opt/control.go),
// drowning the signal Gate 5 measures. It is the workload behind Gate
// 5: with the full multi-CCP dispatch the interpreted (full-stack)
// share of routed events must drop well below the single-CCP
// configuration's on the same seed.

// MixedStats is one mixed-traffic run's dispatch accounting, summed
// over all members. The group installs exactly one view, so the
// engines' per-view counters cover the whole run.
type MixedStats struct {
	Members, Rounds int
	MultiCCP        bool
	Wall            time.Duration
	// Hits[p] counts events routed to path p (PathFullStack hits are
	// interpreter fall-throughs); Misses[p] counts probed-and-failed.
	Hits, Misses [opt.NumPaths]int64
	// CtrlCompressed / CtrlFull count stack-exit control sends that were
	// emitted compressed vs fully marshaled; Uncompressed counts
	// compressed arrivals that missed their CCP and were expanded.
	CtrlCompressed, CtrlFull, Uncompressed int64
	// Delivered counts application deliveries (casts and sends) across
	// all members; Missing counts the deliveries the submissions owed
	// (every cast at every member, every send at its target) that never
	// happened — the lossy link's unrepaired casts (see ROADMAP,
	// stubborn repair in mnak). It is reported, not failed on.
	Delivered, Missing int64
}

// TotalRouted is the number of routed events across all paths.
func (s MixedStats) TotalRouted() int64 {
	var sum int64
	for _, h := range s.Hits {
		sum += h
	}
	return sum
}

// InterpShare is the fraction of routed events that fell through to the
// interpreted full stack — the number Gate 5 compares across
// configurations.
func (s MixedStats) InterpShare() float64 {
	total := s.TotalRouted()
	if total == 0 {
		return 0
	}
	return float64(s.Hits[opt.PathFullStack]) / float64(total)
}

// MeasureMixedTraffic drives the mixed workload over a lossy simulated
// link: members all run the optimized FIFO stack, ring-sending twice
// per round and casting every twentieth. multiCCP selects the full
// dispatch family; false builds the single-CCP baseline (data paths
// only, no control specialization). Identical seeds yield identical
// traffic, so the two configurations are directly comparable.
func MeasureMixedTraffic(members, rounds int, multiCCP bool, seed int64) (MixedStats, error) {
	res := MixedStats{Members: members, Rounds: rounds, MultiCCP: multiCCP}
	var engOpts []opt.EngineOpt
	if !multiCCP {
		engOpts = append(engOpts, opt.WithoutControlPaths())
	}
	// Rounds are spaced a fifth of the 50 ms sweep interval apart, so a
	// loss-induced gap poisons only a few rounds of in-order arrivals
	// before a retransmission closes it. Two sends per round, casts every
	// twentieth — the pt2pt machinery (sends, acks, retransmissions) is
	// the bulk of the traffic, with enough casts in flight to keep every
	// cast path exercised. The tail lets the sweeps retransmit everything
	// the lossy link dropped and the acknowledgment thresholds drain.
	const interval = int64(10e6)
	run, err := runGroup(groupSpec{
		members: members, names: layers.StackFifo(), cfg: MACH, profile: netsim.Lossy(0.03), seed: seed,
		engOpts: engOpts, mode: BatchedCross, rounds: rounds, interval: interval,
		submit: func(run *groupRun, r, i int, at int64) {
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf, uint64(i))
			run.send(r, at, (r+1)%members, buf)
			run.send(r, at, (r+1)%members, buf)
			if i%20 == 0 {
				run.cast(r, at, buf)
			}
		},
		until: int64(rounds)*interval + int64(1e9), name: "mixed traffic",
	})
	if err != nil {
		return res, err
	}
	res.Wall = run.Wall
	res.Hits, res.Misses = run.eng.PathHits, run.eng.PathMisses
	res.CtrlCompressed, res.CtrlFull, res.Uncompressed = run.eng.CtrlCompressed, run.eng.CtrlFull, run.eng.Uncompressed
	res.Delivered, res.Missing = int64(run.Delivered), int64(run.missing)
	if res.Delivered == 0 {
		return res, fmt.Errorf("bench: mixed traffic delivered nothing")
	}
	return res, nil
}

// MixedTable renders the per-path dispatch accounting of one mixed run
// in each configuration — the `-table ccp` companion to the CCP check
// cost, and the table EXPERIMENTS.md records.
func MixedTable(members, rounds int, seed int64) (string, error) {
	single, err := MeasureMixedTraffic(members, rounds, false, seed)
	if err != nil {
		return "", err
	}
	multi, err := MeasureMixedTraffic(members, rounds, true, seed)
	if err != nil {
		return "", err
	}
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("Multi-CCP dispatch: per-path hits/misses, mixed workload (%d members, %d rounds, seed %d)\n",
		members, rounds, seed)
	app("%-18s %10s %10s %10s %10s\n", "path", "single:hit", "single:mis", "multi:hit", "multi:mis")
	for p := opt.PathID(0); p < opt.NumPaths; p++ {
		if single.Hits[p]+single.Misses[p]+multi.Hits[p]+multi.Misses[p] == 0 {
			continue
		}
		app("%-18s %10d %10d %10d %10d\n", p.String(),
			single.Hits[p], single.Misses[p], multi.Hits[p], multi.Misses[p])
	}
	app("%-18s %10d %10s %10d %10s\n", "ctrl compressed", single.CtrlCompressed, "", multi.CtrlCompressed, "")
	app("%-18s %10d %10s %10d %10s\n", "uncompressed", single.Uncompressed, "", multi.Uncompressed, "")
	app("%-18s %10d %10s %10d %10s\n", "missing", single.Missing, "", multi.Missing, "")
	app("%-18s %9.1f%% %10s %9.1f%% %10s\n", "interpreted share",
		100*single.InterpShare(), "", 100*multi.InterpShare(), "")
	return string(b), nil
}
