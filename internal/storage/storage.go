// Package storage models per-node local storage: a disk with bandwidth and
// positioning cost, plus a real in-memory filesystem so written data can be
// read back and verified.
//
// It exists for the clMPI paper's future-work direction (§VI): "not only
// MPI peer-to-peer communications but also other time-consuming tasks such
// as file I/O would be encapsulated in other additional OpenCL commands."
// The clmpi package builds EnqueueWriteBufferToFile / EnqueueReadBufferFromFile
// on top of this substrate.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Errors reported by the filesystem.
var (
	ErrNotFound = errors.New("storage: file not found")
	ErrBadRange = errors.New("storage: offset out of range")
)

// Disk is one node's storage device: a FIFO bandwidth resource with a
// per-operation positioning cost, holding named files.
type Disk struct {
	eng  *sim.Engine
	name string
	link *sim.Link
	seek time.Duration
	fs   map[string][]byte
}

// NewDisk creates a disk with the given sequential bandwidth (bytes/s) and
// per-operation positioning (seek) time.
func NewDisk(e *sim.Engine, name string, bw float64, seek time.Duration) *Disk {
	return &Disk{
		eng:  e,
		name: name,
		link: sim.NewLink(e, "disk-"+name, bw),
		seek: seek,
		fs:   make(map[string][]byte),
	}
}

// Name reports the disk's diagnostic name.
func (d *Disk) Name() string { return d.name }

// Bandwidth reports the configured sequential rate in bytes/s.
func (d *Disk) Bandwidth() float64 { return d.link.Bandwidth() }

// Seek reports the per-operation positioning time.
func (d *Disk) Seek() time.Duration { return d.seek }

// WriteAt writes data into the file at the byte offset, charging seek plus
// serialization on the disk. Files grow as needed; a missing file is
// created. Writing at an offset beyond the current end zero-fills the gap,
// like a sparse file materialized.
func (d *Disk) WriteAt(p *sim.Proc, path string, offset int64, data []byte) error {
	if offset < 0 {
		return fmt.Errorf("%w: offset %d", ErrBadRange, offset)
	}
	d.link.Occupy(p, d.TransferTime(int64(len(data))), "disk", int64(len(data)))
	f := d.fs[path]
	need := offset + int64(len(data))
	if int64(len(f)) < need {
		grown := make([]byte, need)
		copy(grown, f)
		f = grown
	}
	copy(f[offset:], data)
	d.fs[path] = f
	return nil
}

// ReadAt reads len(buf) bytes from the file at the byte offset.
func (d *Disk) ReadAt(p *sim.Proc, path string, offset int64, buf []byte) error {
	f, ok := d.fs[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if offset < 0 || offset+int64(len(buf)) > int64(len(f)) {
		return fmt.Errorf("%w: [%d,%d) of %q (%d bytes)", ErrBadRange, offset, offset+int64(len(buf)), path, len(f))
	}
	d.link.Occupy(p, d.TransferTime(int64(len(buf))), "disk", int64(len(buf)))
	copy(buf, f[offset:])
	return nil
}

// Size reports a file's length.
func (d *Disk) Size(path string) (int64, error) {
	f, ok := d.fs[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return int64(len(f)), nil
}

// Remove deletes a file.
func (d *Disk) Remove(path string) error {
	if _, ok := d.fs[path]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	delete(d.fs, path)
	return nil
}

// List returns all file names in sorted order.
func (d *Disk) List() []string {
	out := make([]string, 0, len(d.fs))
	for n := range d.fs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TransferTime reports how long n bytes occupy the disk, excluding queueing.
func (d *Disk) TransferTime(n int64) time.Duration {
	return d.seek + d.link.SerializationTime(n)
}
