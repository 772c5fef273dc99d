package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A CPU profile of a traced pass says where its host time went, layer by
// layer, for in-process and CLI workloads alike. This file reads the
// gzipped protobuf that runtime/pprof writes, decoding only the fields the
// attribution needs.

// gcRoots are runtime functions whose samples are garbage-collector work,
// wherever in the stack they appear.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.markrootSpans":  true,
}

// sampleLayer names the layer a sample's CPU time belongs to, given its
// stack of function names, leaf first: "gc" for collector work, else the
// innermost repository package (its directory name under internal/), else
// "main" for a main package, else "runtime" for the scheduler and
// allocator, else "other".
func sampleLayer(stack []string) string {
	for _, f := range stack {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return "main"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

// profileShares reads a CPU profile and returns each layer's share of the
// sampled CPU time, in percent.
func profileShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p.shares(), nil
}

// profile is the subset of a pprof Profile message the attribution uses.
type profile struct {
	strings   []string
	valueType []int64 // sample_type[i].type, a string index
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
}

type sample struct {
	locations []uint64
	values    []int64
}

// shares attributes every sample's CPU value to its layer.
func (p *profile) shares() map[string]float64 {
	vi := len(p.valueType) - 1
	for i, t := range p.valueType {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == "cpu" {
			vi = i
		}
	}
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if name := p.functions[fn]; name >= 0 && int(name) < len(p.strings) {
					stack = append(stack, p.strings[name])
				}
			}
		}
		v := float64(s.values[vi])
		by[sampleLayer(stack)] += v
		total += v
	}
	for k := range by {
		by[k] = 100 * by[k] / total
	}
	return by
}

// pbField is one decoded protobuf field: a varint or fixed-width value in
// v, or the bytes of a length-delimited field.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields decodes one message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad protobuf key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short protobuf fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad protobuf length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short protobuf fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			vt, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			t := int64(-1)
			for _, g := range vt {
				if g.num == 1 {
					t = int64(g.v)
				}
			}
			p.valueType = append(p.valueType, t)
		case 2: // sample
			sf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sf {
				vs, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locations = append(s.locations, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			ff, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			name := int64(-1)
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	if len(p.samples) == 0 {
		return nil, errors.New("profile has no samples")
	}
	return p, nil
}

// hostGroups folds the profile's layers into the groups a traced pass
// reports as host.<group>_pct. The modelled hardware and workload packages
// share one group, as do the observability sinks; a layer not listed here
// (main, runtime, other) lands in host.rest_pct.
var hostGroups = map[string]string{
	"sim": "sim", "core": "core", "cluster": "cluster", "cache": "cluster",
	"cbir": "cbir", "kernels": "kernels", "gc": "gc",
	"experiments": "experiments", "runner": "experiments",
	"accel": "model", "fpga": "model", "hls": "model", "mem": "model", "noc": "model",
	"storage": "model", "cnn": "model", "energy": "model", "workload": "model", "config": "model",
	"metrics": "obs", "qtrace": "obs", "flight": "obs", "inspect": "obs", "trace": "obs", "report": "obs",
}

// hostGroupNames lists every group, so each traced pass reports all of
// them, zeros included.
var hostGroupNames = []string{"sim", "core", "model", "cluster", "cbir", "kernels", "experiments", "obs", "gc", "rest"}

// addProfile folds a traced pass's CPU profile into its per-layer metrics.
func addProfile(layers map[string]float64, path string) error {
	shares, err := profileShares(path)
	if err != nil {
		return err
	}
	for _, g := range hostGroupNames {
		layers["host."+g+"_pct"] = 0
	}
	for l, v := range shares {
		g, ok := hostGroups[l]
		if !ok {
			g = "rest"
		}
		layers["host."+g+"_pct"] += v
	}
	return nil
}
