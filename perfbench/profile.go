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

// This file attributes runtime/pprof samples to the simulator's
// modules. It decodes just the parts of the profile.proto wire format
// the attribution needs (samples, locations, functions, strings), so
// the benchmark depends on the standard library alone.

// modules are the attribution buckets reported as cpu.<m> and
// alloc.<m>; anything else lands in "other".
var modules = []string{
	"simnet", "tc", "transport", "httpsim", "mesh", "cluster", "metrics",
	"ctrlplane", "trace", "hdr", "workload", "app", "chaos", "core",
}

// gcRoots are the runtime's background GC goroutines. A sample with no
// simulator frame under one of these is GC work; GC assists run inside
// mallocgc and stay with the module that allocated.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

type profile struct {
	sampleTypes []string
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// attribute returns each bucket's share, in percent, of the sample
// value named valueType. Each sample goes to its innermost
// meshlayer/... frame, so fmt, map and malloc work called from a
// module counts as that module's.
func attribute(gz []byte, valueType string) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", valueType, p.sampleTypes)
	}
	known := make(map[string]bool, len(modules))
	for _, m := range modules {
		known[m] = true
	}
	sums := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		total += v
		bucket := p.bucket(s.locs)
		if !known[bucket] && bucket != "gc" {
			bucket = "other"
		}
		sums[bucket] += v
	}
	out := make(map[string]float64)
	for _, m := range append(append([]string{}, modules...), "gc", "other") {
		if total > 0 {
			out[m] = 100 * sums[m] / total
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// bucket names the module that owns one stack, leaf first.
func (p *profile) bucket(locs []uint64) string {
	gc := false
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			name := p.str(p.functions[fid])
			if rest, ok := strings.CutPrefix(name, "meshlayer/internal/"); ok {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					return rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "meshlayer.") {
				return "meshlayer"
			}
			for _, r := range gcRoots {
				if name == r {
					gc = true
				}
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	var typeIdx []int64
	err = fields(raw, func(f int, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := fields(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func fields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either packed or
// unpacked form.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
