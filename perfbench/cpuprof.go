package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuShares attributes CPU profile samples to the repository's layers.
// A sample goes to the innermost frame that belongs to the program (so
// runtime helpers such as memmove and mallocgc count against the code
// that called them), except that any sample under a garbage-collector
// entry point counts as gc. Protocol layers are told apart by source
// file, the other packages by package path.
type cpuShares map[string]int64

// cpuBuckets are the reported attribution buckets, in output order.
var cpuBuckets = []string{
	"layers.collect", "layers.mnak", "layers.total", "layers.pt2pt", "layers.membership", "layers.other",
	"stack", "opt", "transport", "netsim", "core", "event", "obs", "ir", "gc", "bench", "other",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.GC", "runtime.markroot", "runtime.gcDrain",
}

// bucketOf classifies one frame; "" means runtime or library code that
// is charged to its caller.
func bucketOf(fn, file string) string {
	const mod = "ensemble/"
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	pkg := strings.TrimPrefix(fn, mod)
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "perfbench": // the benchmark itself, as its tests see it
		return "bench"
	case "internal/layers":
		switch base := path.Base(file); {
		case base == "collect.go":
			return "layers.collect"
		case base == "mnak.go":
			return "layers.mnak"
		case base == "total.go":
			return "layers.total"
		case base == "pt2pt.go":
			return "layers.pt2pt"
		case strings.HasPrefix(base, "membership"):
			return "layers.membership"
		}
		return "layers.other"
	}
	if p := strings.TrimPrefix(pkg, "internal/"); p != pkg {
		for _, b := range cpuBuckets {
			if b == p {
				return b
			}
		}
	}
	return "other"
}

// addProfile folds one gzipped pprof CPU profile into the shares
// (values in CPU nanoseconds).
func (c cpuShares) addProfile(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	vi := p.sampleTypes - 1 // cpu nanoseconds is the last value
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		b := "other"
		found := false
	frames:
		for _, lid := range s.locs {
			for _, fid := range p.locLines[lid] {
				f := p.funcs[fid]
				name, file := p.str(f.name), p.str(f.file)
				for _, g := range gcFrames {
					if name == g {
						b, found = "gc", true
						break frames
					}
				}
				if !found {
					if x := bucketOf(name, file); x != "" {
						b, found = x, true
					}
				}
			}
		}
		c[b] += s.values[vi]
	}
	return nil
}

// total returns the attributed CPU nanoseconds.
func (c cpuShares) total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// A minimal reader for the pprof profile.proto encoding: only the
// fields the attribution needs (sample, location lines, function, string
// table).
type profFunc struct{ name, file int64 }

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes int
	samples     []profSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]profFunc
	strs        []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

type pbuf struct {
	b []byte
	i int
}

func (b *pbuf) varint() (uint64, error) {
	var x uint64
	for s := uint(0); s < 64; s += 7 {
		if b.i >= len(b.b) {
			return 0, io.ErrUnexpectedEOF
		}
		c := b.b[b.i]
		b.i++
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, fmt.Errorf("pprof: varint overflow")
}

// field reads one field header and returns its number, wire type, and
// (for length-delimited fields) the payload; varints come back in v.
func (b *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = b.varint()
	case 1:
		if b.i+8 > len(b.b) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		b.i += 8
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if b.i+int(n) > len(b.b) || int(n) < 0 {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data = b.b[b.i : b.i+int(n)]
			b.i += int(n)
		}
	case 5:
		if b.i+4 > len(b.b) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		b.i += 4
	default:
		err = fmt.Errorf("pprof: wire type %d", wt)
	}
	return
}

// varints decodes a repeated varint field in either packed or unpacked
// form.
func varints(wt int, v uint64, data []byte, out []uint64) ([]uint64, error) {
	if wt == 0 {
		return append(out, v), nil
	}
	pb := &pbuf{b: data}
	for pb.i < len(pb.b) {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	b := &pbuf{b: raw}
	for b.i < len(b.b) {
		num, _, _, data, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			sb := &pbuf{b: data}
			for sb.i < len(sb.b) {
				n, w, x, d, err := sb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = varints(w, x, d, s.locs); err != nil {
						return nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = varints(w, x, d, nil); err != nil {
						return nil, err
					}
					for _, u := range vals {
						s.values = append(s.values, int64(u))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var lines []uint64
			lb := &pbuf{b: data}
			for lb.i < len(lb.b) {
				n, _, x, d, err := lb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line: function_id is field 1
					ln := &pbuf{b: d}
					for ln.i < len(ln.b) {
						m, _, y, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							lines = append(lines, y)
						}
					}
				}
			}
			p.locLines[id] = lines
		case 5: // function
			var id uint64
			var f profFunc
			fb := &pbuf{b: data}
			for fb.i < len(fb.b) {
				n, _, x, _, err := fb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					f.name = int64(x)
				case 4:
					f.file = int64(x)
				}
			}
			p.funcs[id] = f
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}
