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

// hostModules are the program modules host_self shares are reported for:
// every internal package the benchmark links, plus the standard library's
// crypto (sha256/aes/hmac), the Go runtime (allocation, GC, memmove) and
// everything else.
var hostModules = []string{
	"bitset", "bmt", "cache", "core", "ctr", "ctrcache", "enc", "faultinject",
	"grid", "issuewin", "kernel", "mem", "memctrl", "metrics", "nvm",
	"prefetch", "probe", "sim", "steal", "tlb", "workload",
	"crypto", "runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its host module.
func moduleOf(fn string) string {
	const internal = "lelantus/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range hostModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.HasPrefix(fn, "vendor/golang.org/x/crypto/"):
		return "crypto"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/internal/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// selfShares decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each host module's share of samples by the
// module of the sample's leaf frame, together with the sample count. Only
// the handful of profile.proto fields needed for that are decoded.
func selfShares(data []byte) (map[string]float64, int64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		leafFn  = map[uint64]uint64{} // location id -> leaf function id
		samples []struct{ loc, weight uint64 }
	)
	err := eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var locs, vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, struct{ loc, weight uint64 }{locs[0], vals[0]})
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first is the innermost (inlined) frame
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFn[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	counts := map[string]uint64{}
	var total uint64
	for _, s := range samples {
		name := ""
		if idx, ok := funcs[leafFn[s.loc]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		counts[moduleOf(name)] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(hostModules))
	for _, m := range hostModules {
		if total > 0 {
			shares[m] = float64(counts[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, int64(total), nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either its varint value or its length-delimited payload.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (payload) or not.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
