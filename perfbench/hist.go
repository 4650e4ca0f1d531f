package main

import "math/bits"

// hist is a fixed-size log-linear histogram with 128 linear sub-buckets
// per power of two: quantiles are exact below 128 and within 0.8% above
// (obs.Histogram's 12.5% buckets would make span quantiles read the same
// from run to run).
// The tracer keeps one per span name (57 KiB of buckets each).
type hist struct {
	buckets [histBuckets]int64
	n       int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (63-histSubBits)<<histSubBits + histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - 1
	return (e-histSubBits)<<histSubBits + int((u>>uint(e-histSubBits))&(histSub-1)) + histSub
}

// histMid is the midpoint of bucket i, the value a quantile reports.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	block := (i - histSub) >> histSubBits
	off := i & (histSub - 1)
	lo := float64(int64(histSub+off) << uint(block))
	width := float64(int64(1) << uint(block))
	return lo + (width-1)/2
}

func (h *hist) add(v int64) {
	h.buckets[histIndex(v)]++
	h.n++
}

// quantile returns the value at quantile q in [0,1] (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}
