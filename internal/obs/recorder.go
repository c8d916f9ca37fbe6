package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slotWords is the fixed width of one ring slot: a publication marker, the
// packed (kind, shard, ch) word, the timestamp, and the two arguments.
const slotWords = 5

// ring is one fixed-size event buffer. Writers claim a position with one
// fetch-add on head, then publish the slot through a marker protocol; the
// marker encodes the absolute position, so a reader can tell a fully
// published slot from one being overwritten by a later, wrapped-around
// write. Every access is atomic — recording and snapshotting are data-race
// free without any lock.
type ring struct {
	head  atomic.Int64
	mask  int64
	slots []atomic.Int64
}

// Recorder is the flight recorder: a set of rings (one per writer domain —
// a PDES shard, a serve worker) holding the last events of each, plus a
// cold-path note board for the strings (shard labels, deadlock reports)
// that fixed-width events cannot carry.
//
// The zero/nil Recorder is not usable; a nil *Recorder is the documented
// "recording off" state everywhere one is accepted.
type Recorder struct {
	start time.Time
	rings []ring

	noteMu sync.Mutex
	notes  []string
}

// DefaultRingEvents is the per-ring capacity used when callers pass 0: with
// the 40-byte event payload this keeps a fully loaded 8-shard recorder near
// 1.3 MiB — cheap enough to leave on in production.
const DefaultRingEvents = 4096

// NewRecorder creates a recorder with `rings` independent buffers of
// `perRing` events each (rounded up to a power of two; 0 means
// DefaultRingEvents). Ring indexes given to Record are taken modulo the
// ring count, so writers may use any non-negative stable index.
func NewRecorder(rings, perRing int) *Recorder {
	if rings < 1 {
		rings = 1
	}
	if perRing <= 0 {
		perRing = DefaultRingEvents
	}
	capacity := 1
	for capacity < perRing {
		capacity <<= 1
	}
	r := &Recorder{start: time.Now(), rings: make([]ring, rings)}
	for i := range r.rings {
		r.rings[i].mask = int64(capacity - 1)
		r.rings[i].slots = make([]atomic.Int64, capacity*slotWords)
	}
	return r
}

// Start reports the instant event timestamps are relative to.
func (r *Recorder) Start() time.Time { return r.start }

// packMeta folds kind, shard, and ch into one word.
func packMeta(k Kind, shard, ch int16) int64 {
	return int64(k)<<32 | int64(uint16(shard))<<16 | int64(uint16(ch))
}

func unpackMeta(m int64) (k Kind, shard, ch int16) {
	return Kind(m >> 32), int16(uint16(m >> 16)), int16(uint16(m))
}

// Record appends one event to the chosen ring, stamped now. Safe for any
// number of concurrent writers and readers; never blocks, never allocates.
// A nil receiver is a no-op, so call sites do not need their own guard.
func (r *Recorder) Record(ringIdx int, k Kind, shard, ch int16, a, b int64) {
	if r == nil {
		return
	}
	r.RecordAt(ringIdx, int64(time.Since(r.start)), k, shard, ch, a, b)
}

// RecordAt is Record with an explicit timestamp (host ns since Start) —
// for callers that already read the clock for their own accounting.
func (r *Recorder) RecordAt(ringIdx int, t int64, k Kind, shard, ch int16, a, b int64) {
	if r == nil {
		return
	}
	rg := &r.rings[ringIdx%len(r.rings)]
	pos := rg.head.Add(1) - 1
	base := (pos & rg.mask) * slotWords
	s := rg.slots
	// Claim: a negative marker tells readers the slot is mid-write. Publish:
	// the final marker is pos+1, unique to this generation of the slot, so a
	// reader can validate its copy against wrap-around overwrites.
	s[base].Store(^pos)
	s[base+1].Store(packMeta(k, shard, ch))
	s[base+2].Store(t)
	s[base+3].Store(a)
	s[base+4].Store(b)
	s[base].Store(pos + 1)
}

// Recorded reports how many events have ever been recorded (including those
// already overwritten).
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.rings {
		n += r.rings[i].head.Load()
	}
	return n
}

// Snapshot copies every still-resident, fully published event out of every
// ring and returns them sorted by timestamp. It runs concurrently with
// writers: slots being overwritten mid-copy fail marker validation and are
// skipped, so the result is always a set of internally consistent events —
// never a torn one.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		rg := &r.rings[i]
		h := rg.head.Load()
		lo := h - (rg.mask + 1)
		if lo < 0 {
			lo = 0
		}
		for pos := lo; pos < h; pos++ {
			base := (pos & rg.mask) * slotWords
			s := rg.slots
			if s[base].Load() != pos+1 {
				continue
			}
			meta := s[base+1].Load()
			t := s[base+2].Load()
			a := s[base+3].Load()
			b := s[base+4].Load()
			if s[base].Load() != pos+1 {
				continue // overwritten while copying
			}
			k, shard, ch := unpackMeta(meta)
			out = append(out, Event{T: t, Kind: k, Shard: shard, Ch: ch, A: a, B: b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// maxNotes bounds the note board. A long-lived daemon attaches a fresh
// engine per partitioned point and every attach leaves shard labels here, so
// the board keeps only the newest maxNotes lines — like the rings, recorder
// memory stays fixed no matter how long the process runs.
const maxNotes = 256

// Note appends a free-form line to the dump's note board — shard labels,
// deadlock reports, anything worth a string. Cold path; takes a lock.
func (r *Recorder) Note(format string, args ...any) {
	if r == nil {
		return
	}
	r.noteMu.Lock()
	if len(r.notes) >= maxNotes {
		r.notes = append(r.notes[:0], r.notes[len(r.notes)-maxNotes+1:]...)
	}
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.noteMu.Unlock()
}

// Notes returns a copy of the note board.
func (r *Recorder) Notes() []string {
	if r == nil {
		return nil
	}
	r.noteMu.Lock()
	defer r.noteMu.Unlock()
	return append([]string(nil), r.notes...)
}

// WriteDump renders the recorder for a human: header, notes, then every
// resident event in timestamp order. This is the body of /debug/flightz,
// the SIGQUIT handler, and the dump-on-deadlock path.
func (r *Recorder) WriteDump(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "flight recorder: disabled\n")
		return err
	}
	events := r.Snapshot()
	if _, err := fmt.Fprintf(w, "flight recorder dump: %d event(s) resident, %d recorded, window %.3fs\n",
		len(events), r.Recorded(), time.Since(r.start).Seconds()); err != nil {
		return err
	}
	if notes := r.Notes(); len(notes) > 0 {
		fmt.Fprintf(w, "notes:\n")
		for _, n := range notes {
			if _, err := fmt.Fprintf(w, "  %s\n", n); err != nil {
				return err
			}
		}
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "  %s\n", ev.format()); err != nil {
			return err
		}
	}
	return nil
}
