package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// The native trace format serializes a bus — events, causal edges, nothing
// else — so a run can be analyzed offline (clmpi-critpath -in). It is a
// line-oriented tab-separated text format: a header line, then one "E" line
// per event in record order and one "G" line per edge. String fields are
// Go-quoted so tabs and newlines in labels cannot break framing. The format
// is deterministic: writing a bus and re-writing its ReadNative round-trip
// produces identical bytes.

// nativeHeader identifies the format and its version.
const nativeHeader = "clmpi-trace v1"

// WriteNative serializes the bus's events and edges to w.
func (b *Bus) WriteNative(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, nativeHeader)
	for i := range b.events {
		ev := &b.events[i]
		fmt.Fprintf(bw, "E\t%s\t%s\t%s\t%c\t%d\t%d",
			strconv.Quote(ev.Layer), strconv.Quote(ev.Lane), strconv.Quote(ev.Name),
			ev.Ph, int64(ev.Start), int64(ev.End))
		for _, a := range ev.Args {
			fmt.Fprintf(bw, "\t%s\t%s", strconv.Quote(a.Key), strconv.Quote(a.Val))
		}
		fmt.Fprintln(bw)
	}
	for _, e := range b.edges {
		fmt.Fprintf(bw, "G\t%s\t%d\t%d\n", e.Kind, e.From, e.To)
	}
	return bw.Flush()
}

// edgeKindByName inverts EdgeKind.String for parsing.
var edgeKindByName = map[string]EdgeKind{
	"queue":   EdgeQueue,
	"wait":    EdgeWait,
	"msg":     EdgeMsg,
	"handoff": EdgeHandoff,
	"charge":  EdgeCharge,
	"pipe":    EdgePipe,
	"host":    EdgeHost,
}

// ReadNative parses a native trace into a fresh bus. Its Metrics report is
// derived from the loaded events like a live bus's, minus the fabric's
// clmpi.strategy plan counts, which are not events and not part of the
// format.
func ReadNative(r io.Reader) (*Bus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	if sc.Text() != nativeHeader {
		return nil, fmt.Errorf("trace: bad header %q (want %q)", sc.Text(), nativeHeader)
	}
	b := NewBus()
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		f := strings.Split(text, "\t")
		switch f[0] {
		case "E":
			ev, err := parseEvent(f)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			b.events = append(b.events, ev)
		case "G":
			if len(f) != 4 {
				return nil, fmt.Errorf("trace: line %d: edge needs 4 fields, got %d", line, len(f))
			}
			kind, ok := edgeKindByName[f[1]]
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown edge kind %q", line, f[1])
			}
			from, err1 := strconv.ParseInt(f[2], 10, 32)
			to, err2 := strconv.ParseInt(f[3], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("trace: line %d: bad edge endpoints", line)
			}
			prev := len(b.edges)
			b.Edge(kind, EventID(from), EventID(to))
			if len(b.edges) == prev {
				return nil, fmt.Errorf("trace: line %d: edge %d->%d out of range", line, from, to)
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// parseEvent decodes one "E" line split on tabs.
func parseEvent(f []string) (Event, error) {
	if len(f) < 7 || (len(f)-7)%2 != 0 {
		return Event{}, fmt.Errorf("event needs 7+2k fields, got %d", len(f))
	}
	layer, err1 := strconv.Unquote(f[1])
	lane, err2 := strconv.Unquote(f[2])
	name, err3 := strconv.Unquote(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return Event{}, fmt.Errorf("bad quoted field")
	}
	if len(f[4]) != 1 {
		return Event{}, fmt.Errorf("bad phase %q", f[4])
	}
	ph := Phase(f[4][0])
	if ph != PhaseSpan && ph != PhaseInstant {
		return Event{}, fmt.Errorf("unknown phase %q", f[4])
	}
	start, err4 := strconv.ParseInt(f[5], 10, 64)
	end, err5 := strconv.ParseInt(f[6], 10, 64)
	if err4 != nil || err5 != nil || end < start {
		return Event{}, fmt.Errorf("bad interval %q..%q", f[5], f[6])
	}
	ev := Event{Layer: layer, Lane: lane, Name: name, Ph: ph,
		Start: sim.Time(start), End: sim.Time(end)}
	for i := 7; i < len(f); i += 2 {
		k, errK := strconv.Unquote(f[i])
		v, errV := strconv.Unquote(f[i+1])
		if errK != nil || errV != nil {
			return Event{}, fmt.Errorf("bad quoted arg")
		}
		ev.Args = append(ev.Args, Arg{Key: k, Val: v})
	}
	return ev, nil
}
