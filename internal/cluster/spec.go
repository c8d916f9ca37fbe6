package cluster

// Declarative system specs: a canonical, versioned JSON encoding of System.
//
// Every preset this package ships is data loaded through DecodeSpec — the
// same strict path a user-supplied "describe your cluster" file takes — so
// there is exactly one construction route for a System. The encoding is
// canonical: EncodeSpec is deterministic (fixed field order, fixed duration
// spellings, sorted memory-kind keys, two-space indentation, trailing
// newline), so decode→re-encode of a canonical document is byte-identical
// and a spec's canonical bytes can serve as a content address (internal/serve
// hashes the compact form into job identities).
//
// The wire schema is versioned by the top-level "schema" tag; decoding is
// strict (unknown fields are errors) and validation failures carry the full
// field path of the offending value, so a misspelled or out-of-range entry
// in a hand-written cluster description fails loudly instead of silently
// simulating the wrong machine.

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpecSchema is the version tag every system spec document must carry.
const SpecSchema = "clmpi-system/v1"

// ModelVersion numbers the simulation model: a result is a pure function of
// (system spec, workload, ModelVersion). Bump it with every deliberate
// change to virtual time, so content-addressed results from an older model
// are never served as current.
//
//   - 1: the transport as of the system spec schema v1.
//   - 2: a partitioned world's NIC links queue per message, as in the
//     serial engine, instead of behind per-node transmit and receive
//     daemons.
const ModelVersion = 2

//go:embed specs/*.json
var specFS embed.FS

// specDoc is the top-level wire form of a spec file.
type specDoc struct {
	Schema string      `json:"schema"`
	System *specSystem `json:"system"`
}

// specSystem is the wire form of System. Sub-specs are pointers so a missing
// section is distinguishable from an all-zero one and reported by path.
type specSystem struct {
	Name            string        `json:"name"`
	MaxNodes        int           `json:"max_nodes"`
	DefaultStrategy string        `json:"default_strategy"`
	CPU             *specCPU      `json:"cpu"`
	GPU             *specGPU      `json:"gpu"`
	NIC             *specNIC      `json:"nic"`
	Disk            *specDisk     `json:"disk"`
	Software        *specSoftware `json:"software,omitempty"`
}

type specCPU struct {
	Model   string  `json:"model"`
	Sockets int     `json:"sockets"`
	Cores   int     `json:"cores"`
	GHz     float64 `json:"ghz"`
	GFLOPS  float64 `json:"gflops"`
	MemBW   float64 `json:"mem_bw"`
}

type specGPU struct {
	Model           string             `json:"model"`
	MemBytes        int64              `json:"mem_bytes"`
	SustainedGFLOPS float64            `json:"sustained_gflops"`
	PCIeBW          map[string]float64 `json:"pcie_bw"`
	DMALatency      specDuration       `json:"dma_latency"`
	PinSetup        specDuration       `json:"pin_setup"`
	MapSetup        specDuration       `json:"map_setup"`
	PeerSetup       specDuration       `json:"peer_setup,omitempty"`
	KernelLaunch    specDuration       `json:"kernel_launch"`
}

type specNIC struct {
	Model       string       `json:"model"`
	BW          float64      `json:"bw"`
	WireLatency specDuration `json:"wire_latency"`
	MsgOverhead specDuration `json:"msg_overhead"`
	Backplane   float64      `json:"backplane,omitempty"`
	PeerDMA     bool         `json:"peer_dma,omitempty"`
}

type specDisk struct {
	Model string       `json:"model"`
	BW    float64      `json:"bw"`
	Seek  specDuration `json:"seek"`
}

type specSoftware struct {
	OS       string `json:"os,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	Driver   string `json:"driver,omitempty"`
	OpenCL   string `json:"opencl,omitempty"`
	MPI      string `json:"mpi,omitempty"`
}

// specDuration encodes a time.Duration as its String() form ("18µs",
// "8ms"). Duration.String is canonical and ParseDuration inverts it exactly,
// so durations survive a decode/re-encode round trip byte for byte while
// staying human-editable.
type specDuration time.Duration

func (d specDuration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *specDuration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("want a duration string like \"18µs\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = specDuration(v)
	return nil
}

// hostMemKinds are the legal pcie_bw map keys, in HostMemKind order.
var hostMemKinds = []string{"pageable", "pinned", "mapped", "peer"}

// specFromSystem builds the wire form of sys.
func specFromSystem(sys System) specDoc {
	pcie := map[string]float64{
		"pageable": sys.GPU.PageableBW,
		"pinned":   sys.GPU.PinnedBW,
		"mapped":   sys.GPU.MappedBW,
	}
	if sys.GPU.PeerBW > 0 {
		pcie["peer"] = sys.GPU.PeerBW
	}
	var sw *specSoftware
	if sys.OS != "" || sys.Compiler != "" || sys.Driver != "" || sys.OpenCL != "" || sys.MPI != "" {
		sw = &specSoftware{OS: sys.OS, Compiler: sys.Compiler, Driver: sys.Driver, OpenCL: sys.OpenCL, MPI: sys.MPI}
	}
	return specDoc{
		Schema: SpecSchema,
		System: &specSystem{
			Name:            sys.Name,
			MaxNodes:        sys.MaxNodes,
			DefaultStrategy: sys.DefaultStrategy,
			CPU: &specCPU{
				Model: sys.CPU.Model, Sockets: sys.CPU.Sockets, Cores: sys.CPU.Cores,
				GHz: sys.CPU.GHz, GFLOPS: sys.CPU.GFLOPS, MemBW: sys.CPU.MemBW,
			},
			GPU: &specGPU{
				Model: sys.GPU.Model, MemBytes: sys.GPU.MemBytes,
				SustainedGFLOPS: sys.GPU.SustainedGFLOPS,
				PCIeBW:          pcie,
				DMALatency:      specDuration(sys.GPU.DMALatency),
				PinSetup:        specDuration(sys.GPU.PinSetup),
				MapSetup:        specDuration(sys.GPU.MapSetup),
				PeerSetup:       specDuration(sys.GPU.PeerSetup),
				KernelLaunch:    specDuration(sys.GPU.KernelLaunch),
			},
			NIC: &specNIC{
				Model: sys.NIC.Model, BW: sys.NIC.BW,
				WireLatency: specDuration(sys.NIC.WireLatency),
				MsgOverhead: specDuration(sys.NIC.MsgOverhead),
				Backplane:   sys.NIC.Backplane,
				PeerDMA:     sys.NIC.PeerDMA,
			},
			Disk: &specDisk{
				Model: sys.Disk.Model, BW: sys.Disk.BW, Seek: specDuration(sys.Disk.Seek),
			},
			Software: sw,
		},
	}
}

// specErrors accumulates validation failures, each anchored to the JSON path
// of the offending field, so a bad hand-written spec reports every problem
// in one pass.
type specErrors struct{ errs []string }

func (e *specErrors) addf(path, format string, args ...any) {
	e.errs = append(e.errs, path+": "+fmt.Sprintf(format, args...))
}

func (e *specErrors) err() error {
	if len(e.errs) == 0 {
		return nil
	}
	return errors.New("cluster: invalid system spec:\n  " + strings.Join(e.errs, "\n  "))
}

// validate checks the decoded wire form and converts it to a System.
func (d *specDoc) validate() (System, error) {
	var e specErrors
	if d.Schema != SpecSchema {
		e.addf("schema", "unknown schema version %q (want %q)", d.Schema, SpecSchema)
	}
	s := d.System
	if s == nil {
		e.addf("system", "missing")
		return System{}, e.err()
	}
	if s.Name == "" {
		e.addf("system.name", "missing")
	}
	if s.MaxNodes < 1 {
		e.addf("system.max_nodes", "must be >= 1 (got %d)", s.MaxNodes)
	}
	switch s.DefaultStrategy {
	case "pinned", "mapped":
	case "":
		e.addf("system.default_strategy", "missing (want pinned or mapped)")
	default:
		e.addf("system.default_strategy", "unknown strategy %q (want pinned or mapped)", s.DefaultStrategy)
	}

	var sys System
	sys.Name = s.Name
	sys.MaxNodes = s.MaxNodes
	sys.DefaultStrategy = s.DefaultStrategy

	if s.CPU == nil {
		e.addf("system.cpu", "missing")
	} else {
		c := s.CPU
		if c.Sockets < 1 {
			e.addf("system.cpu.sockets", "must be >= 1 (got %d)", c.Sockets)
		}
		if c.Cores < 1 {
			e.addf("system.cpu.cores", "must be >= 1 (got %d)", c.Cores)
		}
		if c.GHz <= 0 {
			e.addf("system.cpu.ghz", "must be > 0 (got %g)", c.GHz)
		}
		if c.GFLOPS <= 0 {
			e.addf("system.cpu.gflops", "must be > 0 (got %g)", c.GFLOPS)
		}
		if c.MemBW <= 0 {
			e.addf("system.cpu.mem_bw", "must be > 0 bytes/s (got %g)", c.MemBW)
		}
		sys.CPU = CPUSpec{Model: c.Model, Sockets: c.Sockets, Cores: c.Cores, GHz: c.GHz, GFLOPS: c.GFLOPS, MemBW: c.MemBW}
	}

	if s.GPU == nil {
		e.addf("system.gpu", "missing")
	} else {
		g := s.GPU
		if g.MemBytes <= 0 {
			e.addf("system.gpu.mem_bytes", "must be > 0 (got %d)", g.MemBytes)
		}
		if g.SustainedGFLOPS <= 0 {
			e.addf("system.gpu.sustained_gflops", "must be > 0 (got %g)", g.SustainedGFLOPS)
		}
		known := map[string]bool{}
		for _, k := range hostMemKinds {
			known[k] = true
		}
		keys := make([]string, 0, len(g.PCIeBW))
		for k := range g.PCIeBW {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !known[k] {
				e.addf("system.gpu.pcie_bw", "unknown host-memory kind %q (want %s)", k, strings.Join(hostMemKinds, ", "))
			}
		}
		for _, k := range []string{"pageable", "pinned", "mapped"} {
			if bw, ok := g.PCIeBW[k]; !ok {
				e.addf("system.gpu.pcie_bw."+k, "missing")
			} else if bw <= 0 {
				e.addf("system.gpu.pcie_bw."+k, "must be > 0 bytes/s (got %g)", bw)
			}
		}
		if bw, ok := g.PCIeBW["peer"]; ok && bw <= 0 {
			e.addf("system.gpu.pcie_bw.peer", "must be > 0 bytes/s when present (got %g)", bw)
		}
		for _, d := range []struct {
			path string
			v    specDuration
		}{
			{"system.gpu.dma_latency", g.DMALatency},
			{"system.gpu.pin_setup", g.PinSetup},
			{"system.gpu.map_setup", g.MapSetup},
			{"system.gpu.peer_setup", g.PeerSetup},
			{"system.gpu.kernel_launch", g.KernelLaunch},
		} {
			if d.v < 0 {
				e.addf(d.path, "must be >= 0 (got %s)", time.Duration(d.v))
			}
		}
		sys.GPU = GPUSpec{
			Model: g.Model, MemBytes: g.MemBytes, SustainedGFLOPS: g.SustainedGFLOPS,
			PageableBW: g.PCIeBW["pageable"], PinnedBW: g.PCIeBW["pinned"],
			MappedBW: g.PCIeBW["mapped"], PeerBW: g.PCIeBW["peer"],
			DMALatency: time.Duration(g.DMALatency), PinSetup: time.Duration(g.PinSetup),
			MapSetup: time.Duration(g.MapSetup), PeerSetup: time.Duration(g.PeerSetup),
			KernelLaunch: time.Duration(g.KernelLaunch),
		}
	}

	if s.NIC == nil {
		e.addf("system.nic", "missing")
	} else {
		n := s.NIC
		if n.BW <= 0 {
			e.addf("system.nic.bw", "must be > 0 bytes/s (got %g)", n.BW)
		}
		if n.WireLatency <= 0 {
			e.addf("system.nic.wire_latency", "must be > 0 (got %s)", time.Duration(n.WireLatency))
		}
		if n.MsgOverhead < 0 {
			e.addf("system.nic.msg_overhead", "must be >= 0 (got %s)", time.Duration(n.MsgOverhead))
		}
		if n.Backplane < 0 {
			e.addf("system.nic.backplane", "must be >= 0 (got %g)", n.Backplane)
		}
		sys.NIC = NICSpec{
			Model: n.Model, BW: n.BW,
			WireLatency: time.Duration(n.WireLatency), MsgOverhead: time.Duration(n.MsgOverhead),
			Backplane: n.Backplane, PeerDMA: n.PeerDMA,
		}
	}

	if s.Disk == nil {
		e.addf("system.disk", "missing")
	} else {
		dk := s.Disk
		if dk.BW <= 0 {
			e.addf("system.disk.bw", "must be > 0 bytes/s (got %g)", dk.BW)
		}
		if dk.Seek < 0 {
			e.addf("system.disk.seek", "must be >= 0 (got %s)", time.Duration(dk.Seek))
		}
		sys.Disk = DiskSpec{Model: dk.Model, BW: dk.BW, Seek: time.Duration(dk.Seek)}
	}

	if s.Software != nil {
		sys.OS, sys.Compiler, sys.Driver = s.Software.OS, s.Software.Compiler, s.Software.Driver
		sys.OpenCL, sys.MPI = s.Software.OpenCL, s.Software.MPI
	}
	if err := e.err(); err != nil {
		return System{}, err
	}
	return sys, nil
}

// DecodeSpec parses a system spec document strictly (unknown fields and
// anything but whitespace after the document are errors) and validates it. Validation failures name the full JSON path of
// every offending field.
func DecodeSpec(data []byte) (System, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc specDoc
	if err := dec.Decode(&doc); err != nil {
		return System{}, fmt.Errorf("cluster: decode system spec: %w", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return System{}, fmt.Errorf("cluster: decode system spec: trailing data after the document")
	}
	return doc.validate()
}

// EncodeSpec renders sys as its canonical spec document: validated, indented
// two spaces, trailing newline. Decoding the output and re-encoding it
// reproduces the same bytes exactly.
func EncodeSpec(sys System) ([]byte, error) {
	doc := specFromSystem(sys)
	if _, err := doc.validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cluster: encode system spec: %w", err)
	}
	return append(data, '\n'), nil
}

// EncodeSpecCompact is EncodeSpec without indentation — the form content
// hashes digest (internal/serve embeds it in job identities).
func EncodeSpecCompact(sys System) ([]byte, error) {
	doc := specFromSystem(sys)
	if _, err := doc.validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode system spec: %w", err)
	}
	return data, nil
}

// LoadFile reads and decodes one spec file.
func LoadFile(path string) (System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return System{}, fmt.Errorf("cluster: load system spec: %w", err)
	}
	sys, err := DecodeSpec(data)
	if err != nil {
		return System{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return sys, nil
}

// registry holds the built-in presets, decoded once from the embedded
// canonical spec files, plus the canonical-bytes index serve uses to collapse
// an inline spec that describes a preset back to the preset's name.
type registry struct {
	systems   map[string]System
	canonical map[string]string // compact canonical encoding -> preset name
	names     []string          // sorted
}

var loadRegistry = sync.OnceValue(func() *registry {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Sprintf("cluster: embedded specs: %v", err))
	}
	r := &registry{systems: map[string]System{}, canonical: map[string]string{}}
	for _, ent := range entries {
		data, err := specFS.ReadFile("specs/" + ent.Name())
		if err != nil {
			panic(fmt.Sprintf("cluster: embedded spec %s: %v", ent.Name(), err))
		}
		sys, err := DecodeSpec(data)
		if err != nil {
			panic(fmt.Sprintf("cluster: embedded spec %s: %v", ent.Name(), err))
		}
		name := strings.TrimSuffix(ent.Name(), ".json")
		if name != strings.ToLower(sys.Name) {
			panic(fmt.Sprintf("cluster: embedded spec %s names system %q (file must be lower-cased name)", ent.Name(), sys.Name))
		}
		compact, err := EncodeSpecCompact(sys)
		if err != nil {
			panic(fmt.Sprintf("cluster: embedded spec %s: %v", ent.Name(), err))
		}
		r.systems[name] = sys
		r.canonical[string(compact)] = name
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	return r
})

// Preset returns the built-in preset with the given lower-case name.
// Unlike Systems it copies nothing, so per-request lookups stay cheap.
func Preset(name string) (System, bool) {
	sys, ok := loadRegistry().systems[name]
	return sys, ok
}

// mustPreset returns one built-in preset by lower-case name.
func mustPreset(name string) System {
	sys, ok := Preset(name)
	if !ok {
		panic(fmt.Sprintf("cluster: no embedded preset %q", name))
	}
	return sys
}

// PresetNames lists the built-in preset names, sorted.
func PresetNames() []string {
	return append([]string(nil), loadRegistry().names...)
}

// PresetByCanonical reports the built-in preset whose compact canonical
// encoding equals enc, if any. serve.Normalize uses it so an inline spec
// identical to a preset content-addresses the same cache entry as the
// preset's name.
func PresetByCanonical(enc []byte) (string, bool) {
	name, ok := loadRegistry().canonical[string(enc)]
	return name, ok
}

// Resolve turns a -system argument into a System: a preset name
// (case-insensitive) or the path of a spec file. Every CLI accepting
// -system routes through this, so "describe your cluster" files work
// anywhere a preset does.
func Resolve(nameOrFile string) (System, error) {
	arg := strings.TrimSpace(nameOrFile)
	if sys, ok := loadRegistry().systems[strings.ToLower(arg)]; ok {
		return sys, nil
	}
	if _, err := os.Stat(arg); err == nil || strings.ContainsAny(arg, `/\`) || strings.HasSuffix(arg, ".json") {
		return LoadFile(arg)
	}
	return System{}, fmt.Errorf("cluster: unknown system %q (presets: %s; or pass a spec file path)",
		nameOrFile, strings.Join(PresetNames(), ", "))
}
