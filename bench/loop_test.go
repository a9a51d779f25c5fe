package main

import (
	"testing"
	"time"
)

// noopTarget answers at once; with it the loop's own cost is all there is.
type noopTarget struct{ prepared, done int }

func (t *noopTarget) prepare(int, int, *recorder) int { t.prepared++; return 0 }

func (t *noopTarget) do(_, i int, rec *recorder, parent int32) int {
	rec.end(rec.begin(spanSearch, parent, int32(i)))
	t.done++
	return 0
}

func TestTimedLoopAllocatesNothing(t *testing.T) {
	buf := make([]sample, 1000)
	target := &noopTarget{}
	rec := newRecorder(time.Now(), len(buf)*spansPerRequest)
	for name, r := range map[string]*recorder{"untraced": nil, "traced": rec} {
		allocs := testing.AllocsPerRun(20, func() {
			if r != nil {
				r.spans = r.spans[:0]
			}
			run := runClient(target, 0, time.Now(), time.Hour, 100, buf, r)
			if len(run.samples) != len(buf) || run.failed != 0 {
				t.Fatalf("loop recorded %d samples and %d failures, want %d and 0", len(run.samples), run.failed, len(buf))
			}
		})
		if allocs != 0 {
			t.Errorf("%s loop allocates %v times per run, want 0", name, allocs)
		}
	}
	if len(rec.spans) == 0 {
		t.Error("the traced loop recorded no spans")
	}
}

func TestLoopStopsAtTheDeadline(t *testing.T) {
	buf := make([]sample, 1<<20)
	run := runClient(&noopTarget{}, 0, time.Now(), 2*time.Millisecond, 100, buf, nil)
	if n := len(run.samples); n == 0 || n == len(buf) {
		t.Fatalf("loop recorded %d samples in 2ms", n)
	}
	if last := run.samples[len(run.samples)-1]; last.endNs > int64(50*time.Millisecond) {
		t.Errorf("last request ended %v after the start of a 2ms run", time.Duration(last.endNs))
	}
}

// A traced run records spans in one slice out of traceEvery, each of them
// whole, and stops tracing at a slice boundary once the recorder has no room
// for another whole slice: nothing is ever dropped.
func TestTracedRunRecordsWholeSlicesWhileThereIsRoom(t *testing.T) {
	const slice = 100
	buf := make([]sample, 2000)
	// The no-op target records two spans a request. After three traced slices
	// the room left is short of a whole slice at spansPerRequest.
	rec := newRecorder(time.Now(), slice*spansPerRequest+2*2*slice+slice/2)
	run := runClient(&noopTarget{}, 0, time.Now(), time.Hour, slice, buf, rec)
	if run.tracedSlices != 3 || rec.dropped != 0 {
		t.Fatalf("traced %d slices and dropped %d spans, want 3 and 0", run.tracedSlices, rec.dropped)
	}
	perSlice := map[int]int{}
	for _, s := range rec.spans {
		if s.name == spanRequest {
			perSlice[int(s.request)/slice]++
		}
	}
	if len(perSlice) != 3 {
		t.Fatalf("requests traced in slices %v, want three slices", perSlice)
	}
	for k, n := range perSlice {
		if !tracedSlice(k) || k/traceEvery >= run.tracedSlices || n != slice {
			t.Errorf("slice %d has %d traced requests", k, n)
		}
	}
	if tracedSlice(0) || tracedSlice(2) || !tracedSlice(1) || !tracedSlice(1+traceEvery) {
		t.Error("a traced slice must have an untraced slice on either side")
	}
}
