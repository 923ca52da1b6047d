package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The cpu.* metrics: per-package CPU shares from a CPU profile of the
// traced phase. The profile is decoded here (a minimal reader of the
// pprof protobuf format) so the benchmark needs no tool beyond the Go
// standard library. A package's share is the fraction of samples with at
// least one frame in that package (cumulative: the shares of a caller and
// its callee overlap). cpu.runtime.sched is the fraction of samples in the
// runtime's scheduler, channel and lock paths — where the gather engine's
// worker handoff shows up.

// cpuLayers maps each cpu.* metric to its package path.
var cpuLayers = []struct{ metric, pkg string }{
	{"cpu.register", "pqs/internal/register"},
	{"cpu.quorum", "pqs/internal/quorum"},
	{"cpu.transport", "pqs/internal/transport"},
	{"cpu.wire", "pqs/internal/wire"},
	{"cpu.replica", "pqs/internal/replica"},
	{"cpu.diffusion", "pqs/internal/diffusion"},
	{"cpu.vtime", "pqs/internal/vtime"},
	{"cpu.load", "pqs/internal/load"},
}

// schedFuncs are the runtime functions counted as scheduler work.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.notewakeup": true, "runtime.notesleep": true, "runtime.futex": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.selectgo": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.mcall": true,
	"runtime.runqgrab": true, "runtime.stealWork": true, "runtime.osyield": true,
	"runtime.usleep": true, "runtime.goschedImpl": true, "runtime.newproc": true,
}

type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns its per-layer shares.
func (p *cpuProfile) stop() (cpuShares, error) {
	pprof.StopCPUProfile()
	return profileShares(p.buf.Bytes())
}

// cpuShares is the cpu.* breakdown of one profile.
type cpuShares struct {
	samples int64
	share   map[string]float64
}

func (c cpuShares) report(r *report) {
	for _, l := range cpuLayers {
		r.set(l.metric, c.share[l.metric], int(c.samples))
	}
	r.set("cpu.runtime.sched", c.share["cpu.runtime.sched"], int(c.samples))
}

// funcPackage returns the package path of a symbolized Go function name,
// e.g. "pqs/internal/replica" for "pqs/internal/replica.(*Replica).Handle".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profileShares decodes a gzipped pprof CPU profile and computes the
// cpu.* shares, weighting each sample by its first value (sample count).
func profileShares(gz []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	out := cpuShares{share: map[string]float64{}}
	var total float64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[0])
		total += w
		out.samples += s.values[0]
		hit := map[string]bool{}
		for _, loc := range s.locations {
			for _, fn := range prof.locFuncs[loc] {
				name := prof.strings[prof.funcNames[fn]]
				pkg := funcPackage(name)
				for _, l := range cpuLayers {
					if pkg == l.pkg {
						hit[l.metric] = true
					}
				}
				if schedFuncs[name] {
					hit["cpu.runtime.sched"] = true
				}
			}
		}
		for m := range hit {
			out.share[m] += w
		}
	}
	if total > 0 {
		for m := range out.share {
			out.share[m] /= total
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the shares need.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids (inlined first)
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint (or fixed) value, or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// nextField decodes the field at the start of b and returns the rest.
func nextField(b []byte) (pbField, []byte, error) {
	key, b, err := uvarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.value, b, err = uvarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errTruncated
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = uvarint(b)
		if err == nil && uint64(len(b)) < n {
			err = errTruncated
		}
		if err == nil {
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errTruncated
		}
		b = b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", f.wire)
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
	return 0, nil, errTruncated
}

// repeatedUints appends a repeated integer field, which the encoder may
// write packed (wire type 2) or one value at a time (wire type 0).
func repeatedUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		var v uint64
		var err error
		if v, b, err = uvarint(b); err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// eachField calls fn for every field of message b.
func eachField(b []byte, fn func(pbField) error) error {
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

// decodeProfile reads the Profile message fields sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(f pbField) error {
		switch f.num {
		case 2: // Sample: location_id (1), value (2)
			var s profSample
			err := eachField(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = repeatedUints(s.locations, g)
				case 2:
					var vs []uint64
					vs, err = repeatedUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: id (1), line (4) { function_id (1) }
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					return eachField(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function: id (1), name (2)
			var id uint64
			var name int64
			err := eachField(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table", idx)
		}
	}
	return p, nil
}
