package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{parent: -1, startNs: 0, endNs: 100},   // 0: root
		{parent: 0, startNs: 10, endNs: 40},    // 1: child
		{parent: 0, startNs: 30, endNs: 60},    // 2: overlaps 1
		{parent: 0, startNs: 90, endNs: 120},   // 3: sticks out of the root
		{parent: 1, startNs: 15, endNs: 25},    // 4: grandchild
		{parent: -1, startNs: 200, endNs: 250}, // 5: childless root
		{parent: 0, startNs: 35, endNs: 38},    // 6: inside 1 and 2 both
	}
	want := []int64{
		100 - (50 + 10), // children cover [10,60] and [90,100]
		30 - 10,
		30,
		30,
		10,
		50,
		3,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderDropsWhenFullAndNilRecordsNothing(t *testing.T) {
	var none *recorder
	none.end(none.begin(spanRequest, noSpan, 0)) // must not panic
	r := newRecorder(time.Now(), 2)
	a := r.begin(spanRequest, noSpan, 0)
	b := r.begin(spanSearch, a, 0)
	c := r.begin(spanSearch, a, 0)
	r.end(c)
	r.end(b)
	r.end(a)
	if c != noSpan || r.dropped != 1 || len(r.spans) != 2 {
		t.Fatalf("full recorder: third span %d, dropped %d, kept %d", c, r.dropped, len(r.spans))
	}
	if s := r.spans[b]; s.parent != a || s.endNs < s.startNs {
		t.Errorf("child span %+v", s)
	}
}

func TestWriteTraceIsJSONWithUniqueSpanIDs(t *testing.T) {
	origin := time.Now()
	r1, r2 := newRecorder(origin, 4), newRecorder(origin, 4)
	root := r1.begin(spanRequest, noSpan, 7)
	r1.end(r1.begin(spanSearch, root, 7))
	r1.end(root)
	root = r2.begin(spanRequest, noSpan, 8)
	r2.end(r2.begin(spanRouter, root, 8))
	r2.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "lib_single", 1, loopSpanNames, []*recorder{r1, r2}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Summary []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"summary"`
		Spans []struct {
			Span, Parent, Request int
			Name                  string
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.Spans) != 4 || len(doc.Summary) != 3 {
		t.Fatalf("%d spans and %d summary rows, want 4 and 3", len(doc.Spans), len(doc.Summary))
	}
	for i, s := range doc.Spans {
		if s.Span != i {
			t.Errorf("span %d has id %d", i, s.Span)
		}
	}
	if last := doc.Spans[3]; last.Parent != 2 || last.Name != "serving.router" || last.Request != 8 {
		t.Errorf("second recorder's child span = %+v, want parent 2", last)
	}
}
