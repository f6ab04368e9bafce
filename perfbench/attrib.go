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

// internalLayers are the azurebench/internal modules that count as
// layers of their own.
var internalLayers = []string{
	"core", "sim", "cloud", "queuestore", "tablestore", "blobstore",
	"storecommon", "payload", "partitionmgr", "trace", "sdk", "rest",
}

// layers are the names CPU samples are attributed to, in report order;
// "bench" is this benchmark's own code.
var layers = append(append([]string{}, internalLayers...),
	"bench", "nethttp", "runtime.gc", "runtime.sched", "runtime.other")

const internalPrefix = "azurebench/internal/"

// internalLayer reports the layer of an azurebench/internal function, or
// "" when fn is outside the internal tree or in a module that is not a
// layer of its own (metrics, vclock, retry, ...), whose cost belongs to
// the layer that called it.
func internalLayer(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	mod := fn[len(internalPrefix):]
	if i := strings.IndexAny(mod, "./"); i >= 0 {
		mod = mod[:i]
	}
	for _, l := range internalLayers {
		if l == mod {
			return l
		}
	}
	return ""
}

// benchFrames are this benchmark's own functions: package main in the
// binary, its import path in the test binary.
var benchFrames = []string{"main.", "azurebench/perfbench."}

// gcFrames and schedFrames are the runtime entry points whose samples
// count as garbage collection and as scheduling.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.findrunnable"}
)

func hasFrame(stack []string, match func(string) bool) bool {
	for _, fn := range stack {
		if match(fn) {
			return true
		}
	}
	return false
}

func hasPrefixIn(prefixes []string) func(string) bool {
	return func(fn string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
}

// classify returns the layer one CPU sample belongs to; stack lists
// function names innermost first. The rule, in order:
//  1. the innermost frame in an azurebench/internal layer module;
//  2. bench, if the benchmark's own code (package main) is on the stack;
//  3. nethttp, if a net/http frame is on the stack;
//  4. runtime.gc, under a GC worker, assist, sweeper or scavenger;
//  5. runtime.sched, under schedule/findRunnable;
//  6. runtime.other.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := internalLayer(fn); l != "" {
			return l
		}
	}
	switch {
	case hasFrame(stack, hasPrefixIn(benchFrames)):
		return "bench"
	case hasFrame(stack, func(fn string) bool { return strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") }):
		return "nethttp"
	case hasFrame(stack, hasPrefixIn(gcFrames)):
		return "runtime.gc"
	case hasFrame(stack, hasPrefixIn(schedFrames)):
		return "runtime.sched"
	}
	return "runtime.other"
}

// stackSample is one distinct stack of a CPU profile with its sample count.
type stackSample struct {
	stack []string // innermost first
	count int64
}

// cpuFractions attributes samples to layers and returns each layer's
// share of all samples (every layer present, summing to 1 when any sample
// exists) and the total sample count.
func cpuFractions(samples []stackSample) (map[string]float64, int64) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[classify(s.stack)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, total
}

// decodeProfile reads a gzip-compressed pprof CPU profile, as
// runtime/pprof writes it, into stacks of function names. Inlined frames
// are expanded, innermost first. Only the fields attribution needs are
// decoded (profile.proto: Profile.sample=2, location=4, function=5,
// string_table=6).
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					return appendUints(&vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
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
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
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
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, handing varint
// fields to fn as v and length-delimited fields as b. Fixed-width fields
// are skipped.
func eachField(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the encoder may
// write packed (one length-delimited run) or one varint per element.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
