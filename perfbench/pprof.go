package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzip-compressed protocol-buffer CPU profile that
// runtime/pprof writes (the profile.proto format) with the standard
// library alone, keeping only what a self-time fold needs: each sample's
// leaf function and its CPU time.

var errProto = errors.New("malformed profile")

// protoField is one decoded protocol-buffer field: a varint or fixed
// value in num, or the bytes of a length-delimited field in buf.
type protoField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

// nextField decodes the field at the start of b and returns the rest.
func nextField(b []byte) (protoField, []byte, error) {
	key, b, err := uvarint(b)
	if err != nil {
		return protoField{}, nil, err
	}
	f := protoField{tag: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.num, b, err = uvarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errProto
		}
		for i := 7; i >= 0; i-- {
			f.num = f.num<<8 | uint64(b[i])
		}
		b = b[8:]
	case 2:
		var n uint64
		if n, b, err = uvarint(b); err == nil {
			if n > uint64(len(b)) {
				return f, nil, errProto
			}
			f.buf, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errProto
		}
		f.num = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
		b = b[4:]
	default:
		return f, nil, fmt.Errorf("%w: wire type %d", errProto, f.wire)
	}
	return f, b, err
}

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields calls fn for every field of message b.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		f, rest, err := nextField(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// ints appends the values of a repeated integer field, packed or not.
func ints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.num), nil
	}
	for b := f.buf; len(b) > 0; {
		v, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// selfTimes decodes a CPU profile and returns the CPU nanoseconds sampled
// in each function as the innermost frame (its self time, inlined frames
// counted as their own function) and the profile's total.
func selfTimes(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample type's name
		samples    [][]byte
		leafFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName   = map[uint64]uint64{} // function id -> string index
	)
	err = fields(raw, func(f protoField) error {
		switch f.tag {
		case 1: // sample_type
			return fields(f.buf, func(g protoField) error {
				if g.tag == 1 {
					valueTypes = append(valueTypes, g.num)
				}
				return nil
			})
		case 2:
			samples = append(samples, f.buf)
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := fields(f.buf, func(g protoField) error {
				switch {
				case g.tag == 1:
					id = g.num
				case g.tag == 4 && !seenLine: // the first line is the innermost frame
					seenLine = true
					return fields(g.buf, func(h protoField) error {
						if h.tag == 1 {
							fn = h.num
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(f.buf, func(g protoField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	// CPU profiles carry samples/count and cpu/nanoseconds; fold the time.
	vi := len(valueTypes) - 1
	for i, s := range valueTypes {
		if s < uint64(len(strs)) && strs[s] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, fmt.Errorf("profile: %w: no sample types", errProto)
	}
	self := map[string]int64{}
	var total int64
	for _, sb := range samples {
		var locs, vals []uint64
		err := fields(sb, func(g protoField) error {
			var err error
			switch g.tag {
			case 1:
				locs, err = ints(locs, g)
			case 2:
				vals, err = ints(vals, g)
			}
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		if vi >= len(vals) {
			return nil, 0, fmt.Errorf("profile: %w: sample without value %d", errProto, vi)
		}
		v := int64(vals[vi])
		total += v
		name := "[unknown]"
		if len(locs) > 0 {
			if s := funcName[leafFunc[locs[0]]]; s > 0 && s < uint64(len(strs)) {
				name = strs[s]
			}
		}
		self[name] += v
	}
	return self, total, nil
}

// moduleOf maps a profiled function name to the benchmark module it
// belongs to: the package name under mobicache/internal, "runtime" for the
// runtime and its internal packages (the garbage collector included), or
// "" for anything else.
func moduleOf(fn string) string {
	// Cut receiver and type-parameter suffixes first: both can contain
	// '/' and '.' of other packages.
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	dot := strings.LastIndex(fn, "/") + 1
	if i := strings.IndexByte(fn[dot:], '.'); i >= 0 {
		dot += i
	} else {
		dot = len(fn)
	}
	pkg := fn[:dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mobicache/internal/"):
		m, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mobicache/internal/"), "/")
		return m
	}
	return ""
}

// foldModules adds each function's self time to its module.
func foldModules(self map[string]int64, into map[string]int64) {
	for fn, v := range self {
		if m := moduleOf(fn); m != "" {
			into[m] += v
		}
	}
}
