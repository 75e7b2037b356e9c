package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuModules are the packages under internal/ that a session runs, in the
// order their cpu_share metrics are reported. A sample is charged to the
// innermost frame in one of them; samples with none go to runtime, except
// that frames of this benchmark's own code (its generator and replays) are
// charged to perfbench.
var cpuModules = []string{
	"adaptive", "autograd", "cache", "datasets", "device", "encoding", "featstore",
	"mathx", "models", "nn", "sampler", "serve", "stats", "tensor", "tgraph", "train", "wal",
}

// cpuShares parses a gzipped pprof CPU profile and returns each module's
// share of sampled CPU time, keyed by module, plus "runtime" and
// "perfbench".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	owner := func(fn string) string {
		if rest, ok := strings.CutPrefix(fn, "taser/internal/"); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			if known[mod] {
				return mod
			}
			return "runtime"
		}
		if strings.HasPrefix(fn, "main.") {
			return "perfbench"
		}
		return ""
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		mod := "runtime"
	walk:
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				if o := owner(p.funcName(fid)); o != "" {
					mod = o
					break walk
				}
			}
		}
		shares[mod] += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// parseProfile decodes the fields of profile.proto that attribution needs:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch {
		case num == 2 && wire == 2:
			var s profSample
			var vals []uint64
			err := fields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return varints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, d, func(x uint64) { vals = append(vals, x) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := fields(data, func(n, w int, v uint64, d []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2:
					return fields(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := fields(data, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wire == 2:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("perfbench: malformed CPU profile")

// fields walks the protobuf fields of b, passing varint values as v and
// length-delimited payloads as data; fixed-width fields are skipped.
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field in either encoding: one varint
// (wire 0) or a packed run (wire 2).
func varints(wire int, v uint64, data []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		f(x)
		data = data[n:]
	}
	return nil
}
