package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/pool"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// panickingBench always panics inside Build — the poisoned-run case the
// engine must contain.
func panickingBench(name string) workloads.Benchmark {
	return workloads.Benchmark{
		Name: name, Suite: "test", Category: "test", API: "cuda",
		Build: func(dev *driver.Device, scale int) (*workloads.Spec, error) {
			panic("deliberately poisoned benchmark")
		},
	}
}

// flakyBench fails its first `failures` builds, then behaves like the
// multi-launch test benchmark — the case retry exists for.
func flakyBench(name string, failures int) workloads.Benchmark {
	var mu sync.Mutex
	good := multiLaunchBench(name)
	return workloads.Benchmark{
		Name: name, Suite: "test", Category: "test", API: "cuda",
		Build: func(dev *driver.Device, scale int) (*workloads.Spec, error) {
			mu.Lock()
			fail := failures > 0
			if fail {
				failures--
			}
			mu.Unlock()
			if fail {
				return nil, errors.New("transient build failure")
			}
			return good.Build(dev, scale)
		},
	}
}

// TestEnginePanicQuarantined: a panicking run fails only itself — the rest
// of the set completes, the panic surfaces as a typed error, and the run
// lands in the quarantine report instead of being silently dropped.
func TestEnginePanicQuarantined(t *testing.T) {
	good, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(4)
	e.SetRetryPolicy(1, time.Millisecond)
	jobs := []Job{
		{good, RunOpts{Mode: driver.ModeOff}},
		{panickingBench("test-poisoned"), RunOpts{Mode: driver.ModeOff}},
		{good, RunOpts{Mode: driver.ModeShield}},
	}
	_, err = e.RunSet(context.Background(), jobs)
	if !errors.Is(err, pool.ErrRunPanic) {
		t.Fatalf("got %v, want an error matching pool.ErrRunPanic", err)
	}
	// The healthy runs completed despite the poison.
	if s := e.Stats(); s.UniqueRuns != 3 {
		t.Fatalf("engine executed %d unique runs, want all 3 (panic must not stop the set)", s.UniqueRuns)
	}
	// Quarantined, with the retry accounted.
	q := e.Quarantine()
	if len(q) != 1 || q[0].Bench != "test-poisoned" || q[0].Attempts != 2 {
		t.Fatalf("quarantine = %+v, want one test-poisoned entry with 2 attempts", q)
	}
	if !strings.Contains(q[0].Err, "poisoned") {
		t.Fatalf("quarantine entry lost the panic detail: %q", q[0].Err)
	}
	if s := e.Stats(); s.Retries != 1 || s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 retry / 1 quarantined", s)
	}
}

// TestEngineRetryRecovers: a run that fails once and then succeeds is
// retried to success, never quarantined.
func TestEngineRetryRecovers(t *testing.T) {
	e := NewEngine(1)
	e.SetRetryPolicy(1, time.Millisecond)
	st, err := e.RunBenchmark(context.Background(), flakyBench("test-flaky-once", 1), RunOpts{Mode: driver.ModeOff})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if st == nil || st.Cycles() == 0 {
		t.Fatal("recovered run returned empty stats")
	}
	if s := e.Stats(); s.Retries != 1 || s.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 retry / 0 quarantined", s)
	}
}

// TestEngineExhaustedRetriesQuarantine: a run that keeps failing is retried
// the configured number of times, then quarantined with its final error.
func TestEngineExhaustedRetriesQuarantine(t *testing.T) {
	e := NewEngine(1)
	e.SetRetryPolicy(2, time.Millisecond)
	_, err := e.RunBenchmark(context.Background(), flakyBench("test-flaky-always", 1<<30), RunOpts{Mode: driver.ModeOff})
	if err == nil || !strings.Contains(err.Error(), "transient build failure") {
		t.Fatalf("got %v, want the persistent failure", err)
	}
	q := e.Quarantine()
	if len(q) != 1 || q[0].Attempts != 3 {
		t.Fatalf("quarantine = %+v, want one entry with 3 attempts", q)
	}
}

// TestEngineCanceledRunNotCached: cancellation must not poison the memo
// cache — the same key re-executes successfully under a live context.
func TestEngineCanceledRunNotCached(t *testing.T) {
	b := multiLaunchBench("test-cancel-retryable")
	e := NewEngine(1)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunBenchmark(dead, b, RunOpts{Mode: driver.ModeOff})
	if err == nil || !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("got %v, want an error matching sim.ErrCanceled", err)
	}
	st, err := e.RunBenchmark(context.Background(), b, RunOpts{Mode: driver.ModeOff})
	if err != nil {
		t.Fatalf("re-run after cancellation failed: %v", err)
	}
	if st == nil || st.Cycles() == 0 {
		t.Fatal("re-run returned empty stats")
	}
}
