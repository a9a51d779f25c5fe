package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. parent is the index of the span that
// caused it (-1 for a root), request the request it belongs to (-1 for a
// span outside any request: probes, mutations).
type span struct {
	parent, request int32
	name            uint16
	startNs, endNs  int64
}

// recorder keeps spans in memory preallocated before the run; one recorder
// belongs to one goroutine. When it is full further spans are dropped and
// counted. A nil recorder records nothing, so untraced code paths call it
// unconditionally.
type recorder struct {
	origin  time.Time
	spans   []span
	dropped int
}

const noSpan = int32(-1)

func newRecorder(origin time.Time, capacity int) *recorder {
	return &recorder{origin: origin, spans: make([]span, 0, capacity)}
}

// room is how many more spans r can hold.
func (r *recorder) room() int { return cap(r.spans) - len(r.spans) }

// begin opens a span and returns its index, or noSpan when not recording.
func (r *recorder) begin(name uint16, parent, request int32) int32 {
	if r == nil {
		return noSpan
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return noSpan
	}
	r.spans = append(r.spans, span{parent: parent, request: request, name: name,
		startNs: int64(time.Since(r.origin))})
	return int32(len(r.spans) - 1)
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if id != noSpan {
		r.spans[id].endNs = int64(time.Since(r.origin))
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (parallel
// parts) and may stick out of the parent; covered time is the union of the
// children clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].startNs < spans[kids[b]].startNs })
		covered, edge := int64(0), s.startNs
		for _, k := range kids {
			lo, hi := max(spans[k].startNs, edge), min(spans[k].endNs, s.endNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.endNs - s.startNs - covered
	}
	return self
}

// nameTotals is the per-name roll-up written beside the spans.
type nameTotals struct {
	count           int
	totalNs, selfNs int64
}

// writeTrace writes the recorders' spans to path as JSON. Span identifiers
// are made unique across recorders by offsetting each recorder's indices.
func writeTrace(path, workload string, seed int64, names []string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	totals := make([]nameTotals, len(names))
	dropped := 0
	for _, r := range recs {
		dropped += r.dropped
		for i, self := range selfTimes(r.spans) {
			s := r.spans[i]
			t := &totals[s.name]
			t.count++
			t.totalNs += s.endNs - s.startNs
			t.selfNs += self
		}
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\"summary\":[", workload, seed, dropped)
	first := true
	for n, t := range totals {
		if t.count == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", names[n], t.count, t.totalNs, t.selfNs)
	}
	w.WriteString("],\"spans\":[")
	offset, first := 0, true
	for _, r := range recs {
		for i, s := range r.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			parent := int(s.parent)
			if parent >= 0 {
				parent += offset
			}
			fmt.Fprintf(w, "\n{\"span\":%d,\"parent\":%d,\"request\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
				offset+i, parent, s.request, names[s.name], s.startNs, s.endNs)
		}
		offset += len(r.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
