package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the repo modules the CPU profile is split into; a
// sample belongs to the module of its innermost repo frame.
var cpuModules = []string{
	"webworld", "rng", "crawler", "fleet", "capturedb", "capstore", "pack",
	"replica", "analytics", "analysis", "detect", "decision", "tcf", "obs",
}

// cpuShares reads gzipped pprof CPU profiles and returns each
// bucket's share of their pooled CPU time: cpu.<module> for the modules above,
// cpu.bench for the benchmark's own frames, cpu.other for other repo
// packages, and, for samples without any repo frame, cpu.net (a net
// frame on the stack) or cpu.runtime.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	out := map[string]float64{"cpu.bench": 0, "cpu.other": 0, "cpu.net": 0, "cpu.runtime": 0}
	for _, m := range cpuModules {
		out["cpu."+m] = 0
	}
	var total float64
	for _, gz := range profiles {
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
		for _, s := range p.samples {
			var funcs []string
			for _, loc := range s.locs {
				for _, fn := range p.locFuncs[loc] {
					funcs = append(funcs, p.strings[p.funcNames[fn]])
				}
			}
			v := float64(s.value)
			total += v
			out[bucketOf(funcs)] += v
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}

// bucketOf names the bucket of one stack, innermost frame first. The
// benchmark's frames are main.* in its binary and repro/pipebench.*
// in its test binary.
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/pipebench.") {
			return "cpu.bench"
		}
		if pkg, ok := strings.CutPrefix(f, "repro/"); ok {
			return "cpu." + repoModule(pkg)
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "net.") || strings.HasPrefix(f, "net/") {
			return "cpu.net"
		}
	}
	return "cpu.runtime"
}

// repoModule maps a function name below "repro/" to its bucket.
func repoModule(fn string) string {
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	last := pkg[strings.LastIndex(pkg, "/")+1:]
	for _, m := range cpuModules {
		if last == m {
			return m
		}
	}
	return "other"
}

// profile is the part of a pprof Profile message the split needs.
type profile struct {
	samples   []pSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type pSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the protobuf fields of profile.proto that
// cpuShares reads: sample (2), location (4), function (5) and the
// string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := forFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pSample
			var vals []uint64
			err := forFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					vals = appendPacked(vals, w, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := forFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return forFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := forFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

// appendPacked appends a repeated integer field given either packed
// (wire type 2) or one value at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// forFields calls fn for each field of a protobuf message: varints
// arrive in v, length-delimited fields in data.
func forFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
