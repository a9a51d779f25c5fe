package reqtrace

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTracesHandlerDisabled(t *testing.T) {
	prev := Default()
	Disable()
	t.Cleanup(func() { defTracer.Store(prev) })
	rec := httptest.NewRecorder()
	TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var resp struct {
		Enabled bool              `json:"enabled"`
		Traces  []json.RawMessage `json:"traces"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || resp.Traces == nil || len(resp.Traces) != 0 {
		t.Fatalf("disabled response: enabled=%v traces=%v", resp.Enabled, resp.Traces)
	}
}

func TestTracesHandlerServesRecentTraces(t *testing.T) {
	newTestTracer(t, Config{Ring: 16})
	for i := 0; i < 5; i++ {
		_, tr := StartRequest(context.Background(), "GL-CNN", 0.25)
		st := StartStage(tr, StageCacheLookup)
		time.Sleep(50 * time.Microsecond)
		st.End()
		tr.SetFlag(FlagCacheMiss)
		tr.AddPoolTasks(2)
		tr.SetOutcome(float64(10+i), nil)
		tr.Finish()
	}
	rec := httptest.NewRecorder()
	TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=3", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var resp struct {
		Enabled   bool   `json:"enabled"`
		Sampled   uint64 `json:"sampled"`
		Published uint64 `json:"published"`
		Traces    []struct {
			ID        uint64             `json:"id"`
			Method    string             `json:"method"`
			Tau       float64            `json:"tau"`
			Estimate  float64            `json:"estimate"`
			LatencyUs float64            `json:"latency_us"`
			Flags     []string           `json:"flags"`
			StagesUs  map[string]float64 `json:"stages_us"`
			PoolTasks int                `json:"pool_tasks"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Sampled != 5 || resp.Published != 5 {
		t.Fatalf("envelope: %+v", resp)
	}
	if len(resp.Traces) != 3 {
		t.Fatalf("?n=3 returned %d traces", len(resp.Traces))
	}
	newest := resp.Traces[0]
	if newest.ID != 5 || newest.Method != "GL-CNN" || newest.Tau != 0.25 || newest.Estimate != 14 {
		t.Fatalf("newest trace: %+v", newest)
	}
	if newest.LatencyUs <= 0 {
		t.Fatal("latency missing from wire form")
	}
	if newest.StagesUs["cache_lookup"] <= 0 {
		t.Fatalf("stage timeline missing: %v", newest.StagesUs)
	}
	if len(newest.Flags) != 1 || newest.Flags[0] != "cache_miss" {
		t.Fatalf("flags: %v", newest.Flags)
	}
	if newest.PoolTasks != 2 {
		t.Fatalf("pool_tasks: %d", newest.PoolTasks)
	}
}

func TestSlowTracesHandlerFilters(t *testing.T) {
	tr := newTestTracer(t, Config{})
	_, fast := StartRequest(context.Background(), "GL", 0.5)
	fast.Finish()
	_, slow := StartRequest(context.Background(), "GL", 0.5)
	slow.Latency = 20 * time.Millisecond
	tr.publish(slow)
	rec := httptest.NewRecorder()
	SlowTracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/slow?min=5ms", nil))
	var resp struct {
		Traces []struct {
			ID uint64 `json:"id"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].ID != slow.ID {
		t.Fatalf("slow filter: %+v", resp.Traces)
	}
}

func TestLogValue(t *testing.T) {
	var nilTrace *Trace
	if got := nilTrace.LogValue(); got.Kind() != slog.KindGroup || len(got.Group()) != 0 {
		t.Fatalf("nil LogValue: %v", got)
	}
	newTestTracer(t, Config{})
	_, tr := StartRequest(context.Background(), "GL-CNN", 0.5)
	st := StartStage(tr, StageLocalEval)
	st.End()
	tr.SetFlag(FlagDegraded)
	tr.SetOutcome(0, errors.New("boom"))
	tr.Finish()
	var sb strings.Builder
	logger := slog.New(slog.NewJSONHandler(&sb, nil))
	logger.Info("estimate", "trace", tr)
	line := sb.String()
	for _, want := range []string{`"method":"GL-CNN"`, `"flags":["degraded","error"]`, `"error":"boom"`, `"local_eval"`} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %s: %s", want, line)
		}
	}
}
