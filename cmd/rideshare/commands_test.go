package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/trace"
)

func TestParseModel(t *testing.T) {
	cases := []struct {
		in   string
		want trace.DriverModel
		ok   bool
	}{
		{"hitchhiking", trace.Hitchhiking, true},
		{"hitch", trace.Hitchhiking, true},
		{"HOME", trace.HomeWorkHome, true},
		{"home-work-home", trace.HomeWorkHome, true},
		{"uber", 0, false},
	}
	for _, tc := range cases {
		got, err := parseModel(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseModel(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseModel(%q) accepted", tc.in)
		}
	}
}

func TestCmdGenJSONAndSolveAndSimulate(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "day.json")
	if err := cmdGen([]string{"-tasks", "40", "-drivers", "8", "-seed", "3", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.ReadTraceJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 40 || len(tr.Drivers) != 8 {
		t.Fatalf("trace sizes %d/%d", len(tr.Tasks), len(tr.Drivers))
	}

	if err := cmdSolve([]string{"-trace", out, "-bound", "-v"}); err != nil {
		t.Fatalf("solve: %v", err)
	}
	for _, algo := range []string{"maxmargin", "nearest", "random", "batched"} {
		if err := cmdSimulate([]string{"-trace", out, "-algo", algo}); err != nil {
			t.Fatalf("simulate %s: %v", algo, err)
		}
	}
	if err := cmdSimulate([]string{"-trace", out, "-algo", "maxmargin", "-byvalue", "-realtime"}); err != nil {
		t.Fatalf("simulate flags: %v", err)
	}
}

func TestCmdGenCSV(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "day.csv")
	if err := cmdGen([]string{"-tasks", "10", "-drivers", "3", "-out", base}); err != nil {
		t.Fatalf("gen csv: %v", err)
	}
	df, err := os.Open(strings.TrimSuffix(base, ".csv") + "_drivers.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	drivers, err := model.ReadDriversCSV(df)
	if err != nil || len(drivers) != 3 {
		t.Fatalf("drivers csv: %v, %d", err, len(drivers))
	}
	tf, err := os.Open(strings.TrimSuffix(base, ".csv") + "_tasks.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tasks, err := model.ReadTasksCSV(tf)
	if err != nil || len(tasks) != 10 {
		t.Fatalf("tasks csv: %v, %d", err, len(tasks))
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdSolve(nil); err == nil {
		t.Error("solve without -trace accepted")
	}
	if err := cmdSimulate(nil); err == nil {
		t.Error("simulate without -trace accepted")
	}
	if err := cmdSimulate([]string{"-trace", "/nonexistent.json"}); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := cmdGen([]string{"-model", "teleportation"}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := cmdExperiments([]string{"-scale", "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := cmdTightness([]string{"-d", "1"}); err == nil {
		t.Error("D=1 tightness accepted")
	}
}

// TestCmdFlagValidation: every command rejects non-positive counts
// (-shards, -workers, -reps, -tasks, -drivers) and out-of-range rates
// at the flag boundary with a clear error, instead of misbehaving or
// panicking deep inside the engine.
func TestCmdFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"gen -tasks 0", func() error { return cmdGen([]string{"-tasks", "0"}) }},
		{"gen -drivers -1", func() error { return cmdGen([]string{"-drivers", "-1"}) }},
		{"gen -churn 1.5", func() error { return cmdGen([]string{"-churn", "1.5"}) }},
		{"gen -cancel -0.1", func() error { return cmdGen([]string{"-cancel", "-0.1"}) }},
		{"simulate -shards 0", func() error { return cmdSimulate([]string{"-trace", "x.json", "-shards", "0"}) }},
		{"simulate -shards -2", func() error { return cmdSimulate([]string{"-trace", "x.json", "-shards", "-2"}) }},
		{"experiments -shards 0", func() error { return cmdExperiments([]string{"-shards", "0"}) }},
		{"experiments -workers 0", func() error { return cmdExperiments([]string{"-workers", "0"}) }},
		{"experiments -workers -3", func() error { return cmdExperiments([]string{"-workers", "-3"}) }},
		{"experiments -reps 0", func() error { return cmdExperiments([]string{"-reps", "0"}) }},
		{"bench -reps 0", func() error { return cmdBench([]string{"-reps", "0"}) }},
		{"bench -tasks 0", func() error { return cmdBench([]string{"-tasks", "0"}) }},
		{"bench -shards 0,2", func() error { return cmdBench([]string{"-shards", "0,2"}) }},
		{"bench -drivers 0", func() error { return cmdBench([]string{"-drivers", "0"}) }},
		{"simulate -algo batched -batchwindow 0", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-batchwindow", "0"})
		}},
		{"simulate -algo batched -batchwindow -5", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-batchwindow", "-5"})
		}},
		{"simulate -algo batched -batchalgo simplex", func() error {
			return cmdSimulate([]string{"-trace", "x.json", "-algo", "batched", "-batchalgo", "simplex"})
		}},
		{"bench -batched -batch-window 0", func() error {
			return cmdBench([]string{"-batched", "-batch-window", "0"})
		}},
		{"bench -batch-window -3", func() error { return cmdBench([]string{"-batch-window", "-3"}) }},
		{"bench -batched -batch-algo simplex", func() error {
			return cmdBench([]string{"-batched", "-batch-algo", "simplex"})
		}},
		{"bench -batched -streaming", func() error { return cmdBench([]string{"-batched", "-streaming"}) }},
		{"bench -windows -batched", func() error { return cmdBench([]string{"-windows", "-batched"}) }},
		{"bench -windows -batch-window 0", func() error {
			return cmdBench([]string{"-windows", "-batch-window", "0"})
		}},
		{"bench -match-workers 0", func() error { return cmdBench([]string{"-match-workers", "0"}) }},
		{"serve -match-workers 0", func() error { return cmdServe([]string{"-match-workers", "0"}) }},
		{"serve -match-workers without -batch-window", func() error {
			return cmdServe([]string{"-match-workers", "4"})
		}},
		{"serve -shards 0", func() error { return cmdServe([]string{"-shards", "0"}) }},
		{"serve -drivers 0", func() error { return cmdServe([]string{"-drivers", "0"}) }},
		{"serve -batch-window -1", func() error { return cmdServe([]string{"-batch-window", "-1"}) }},
		{"serve -algo with -batch-window", func() error {
			return cmdServe([]string{"-algo", "nearest", "-batch-window", "30"})
		}},
		{"serve -batch-window NaN", func() error { return cmdServe([]string{"-batch-window", "NaN"}) }},
		{"serve -batch-algo simplex", func() error { return cmdServe([]string{"-batch-algo", "simplex"}) }},
		{"loadgen -tasks 0", func() error { return cmdLoadgen([]string{"-tasks", "0"}) }},
		{"loadgen -workers 0", func() error { return cmdLoadgen([]string{"-workers", "0"}) }},
		{"loadgen -cancel 2", func() error { return cmdLoadgen([]string{"-cancel", "2"}) }},
		{"loadgen -rate -5", func() error { return cmdLoadgen([]string{"-rate", "-5"}) }},
		{"serve -max-pending -1", func() error { return cmdServe([]string{"-max-pending", "-1"}) }},
		{"bench -maxprocs without a suite", func() error { return cmdBench([]string{"-maxprocs", "1,2"}) }},
		{"bench -windows -maxprocs -2", func() error {
			return cmdBench([]string{"-windows", "-maxprocs", "1,-2"})
		}},
		{"bench -batched -maxprocs x", func() error {
			return cmdBench([]string{"-batched", "-maxprocs", "x"})
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCmdTightness(t *testing.T) {
	if err := cmdTightness([]string{"-d", "3", "-eps", "0.05"}); err != nil {
		t.Fatalf("tightness: %v", err)
	}
}

func TestRunExperimentsRendersRequestedFigures(t *testing.T) {
	cfg := experiments.Config{
		Seed: 1, Tasks: 40, Sweep: []int{5, 10},
		BoundIters: 20, DistSamples: 500,
	}
	var buf bytes.Buffer
	if err := runExperiments(context.Background(), &buf, cfg, "3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig3") {
		t.Errorf("fig3 missing:\n%s", out)
	}
	if strings.Contains(out, "fig5") {
		t.Errorf("fig5 rendered though only fig3 requested")
	}

	buf.Reset()
	if err := runExperiments(context.Background(), &buf, cfg, "7"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "fig7") || strings.Contains(out, "fig6") {
		t.Errorf("density figure filtering broken:\n%s", out)
	}

	buf.Reset()
	if err := runExperiments(context.Background(), &buf, cfg, "all"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if !strings.Contains(out, id) {
			t.Errorf("%s missing from -fig all output", id)
		}
	}
}

func TestCmdGenChurnAndSimulateSharded(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "churnday.json")
	if err := cmdGen([]string{"-tasks", "60", "-drivers", "12", "-seed", "5",
		"-churn", "0.4", "-cancel", "0.3", "-out", out}); err != nil {
		t.Fatalf("gen with churn: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := model.ReadTraceJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("gen -churn/-cancel wrote a trace without events")
	}
	// The embedded events replay through every dispatcher and shard count.
	for _, algo := range []string{"maxmargin", "batched", "replan"} {
		for _, shards := range []string{"1", "4"} {
			if err := cmdSimulate([]string{"-trace", out, "-algo", algo, "-shards", shards}); err != nil {
				t.Fatalf("simulate %s -shards=%s: %v", algo, shards, err)
			}
		}
	}
	// By-value runs cannot replay time-ordered events.
	if err := cmdSimulate([]string{"-trace", out, "-algo", "maxmargin", "-byvalue"}); err == nil {
		t.Fatal("simulate -byvalue accepted a trace with events")
	}
	// Flag override replaces the embedded events.
	if err := cmdSimulate([]string{"-trace", out, "-churn", "0.1", "-cancel", "0.1"}); err != nil {
		t.Fatalf("simulate churn override: %v", err)
	}
}

func TestCmdBenchWritesJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	if err := cmdBench([]string{"-drivers", "120", "-shards", "1,2", "-tasks", "50",
		"-reps", "1", "-out", out}); err != nil {
		t.Fatalf("bench: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name        string  `json:"name"`
			Source      string  `json:"source"`
			Seconds     float64 `json:"seconds"`
			TasksPerSec float64 `json:"tasks_per_sec"`
			Served      int     `json:"served"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench output is not valid JSON: %v", err)
	}
	if report.Schema != "rideshare-bench/v1" {
		t.Fatalf("schema = %q", report.Schema)
	}
	// scan + two shard counts.
	if len(report.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(report.Results))
	}
	for _, r := range report.Results {
		if r.Seconds <= 0 || r.TasksPerSec <= 0 {
			t.Fatalf("%s: non-positive timing %v", r.Name, r)
		}
	}
}

// TestCmdBenchBatchedWritesJSON: the -batched suite records engine and
// streaming-batched service timings in pairs under the shared schema,
// with the served counts of each pair agreeing (the batched streaming
// differential guarantee checked end to end) — for both solvers.
func TestCmdBenchBatchedWritesJSON(t *testing.T) {
	dir := t.TempDir()
	for _, algo := range []string{"hungarian", "auction"} {
		out := filepath.Join(dir, "bench4-"+algo+".json")
		if err := cmdBench([]string{"-batched", "-drivers", "120", "-shards", "2", "-tasks", "60",
			"-reps", "1", "-batch-window", "45", "-batch-algo", algo, "-out", out}); err != nil {
			t.Fatalf("bench -batched (%s): %v", algo, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Schema  string `json:"schema"`
			Results []struct {
				Name    string  `json:"name"`
				Mode    string  `json:"mode"`
				Seconds float64 `json:"seconds"`
				Served  int     `json:"served"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("bench -batched output is not valid JSON: %v", err)
		}
		if report.Schema != "rideshare-bench/v1" {
			t.Fatalf("schema = %q", report.Schema)
		}
		// scan + one shard count, two modes each.
		if len(report.Results) != 4 {
			t.Fatalf("results = %d, want 4", len(report.Results))
		}
		for i := 0; i < len(report.Results); i += 2 {
			engine, stream := report.Results[i], report.Results[i+1]
			if engine.Mode != "batch" || stream.Mode != "streaming" {
				t.Fatalf("pair %d modes: %q/%q", i, engine.Mode, stream.Mode)
			}
			if engine.Served != stream.Served {
				t.Fatalf("pair %d served diverged: %d vs %d", i, engine.Served, stream.Served)
			}
			if engine.Seconds <= 0 || stream.Seconds <= 0 {
				t.Fatalf("pair %d non-positive timing", i)
			}
		}
	}
}

// TestCmdBenchWindowsWritesJSON: the -windows suite records a serial
// window-solve leg per fleet size with the allocation columns filled,
// and a -match-workers above 1 adds a parallel leg with equal served
// counts (the full-Result identity check runs inside the command).
func TestCmdBenchWindowsWritesJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench5.json")
	if err := cmdBench([]string{"-windows", "-drivers", "150", "-shards", "2", "-tasks", "80",
		"-reps", "1", "-batch-window", "600", "-match-workers", "2", "-out", out}); err != nil {
		t.Fatalf("bench -windows: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name          string  `json:"name"`
			Workers       int     `json:"workers"`
			Seconds       float64 `json:"seconds"`
			Served        int     `json:"served"`
			AllocsPerTask float64 `json:"allocs_per_task"`
			BytesPerTask  float64 `json:"bytes_per_task"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench -windows output is not valid JSON: %v", err)
	}
	if report.Schema != "rideshare-bench/v1" {
		t.Fatalf("schema = %q", report.Schema)
	}
	// One fleet size, two legs: serial and workers=2.
	if len(report.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(report.Results))
	}
	serial, parallel := report.Results[0], report.Results[1]
	if serial.Workers != 1 || parallel.Workers != 2 {
		t.Fatalf("leg workers = %d/%d, want 1/2", serial.Workers, parallel.Workers)
	}
	for i, r := range report.Results {
		if r.Served != serial.Served {
			t.Fatalf("leg %d served %d, serial %d", i, r.Served, serial.Served)
		}
		if r.Seconds <= 0 || r.AllocsPerTask < 0 || r.BytesPerTask < 0 {
			t.Fatalf("leg %d has empty measurement columns: %+v", i, r)
		}
	}
}

// TestCmdBenchMaxprocsWritesJSON: the -maxprocs sweep writes one
// result per GOMAXPROCS leg with the latency column family populated
// and ordered, a go_maxprocs column that actually varies (including a
// leg above 1 even on a single-core host — the parallel branches still
// execute), and bit-identical books across legs.
func TestCmdBenchMaxprocsWritesJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench6.json")
	if err := cmdBench([]string{"-windows", "-maxprocs", "1,2", "-drivers", "150", "-shards", "2",
		"-tasks", "80", "-reps", "1", "-batch-window", "600", "-out", out}); err != nil {
		t.Fatalf("bench -windows -maxprocs: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema  string `json:"schema"`
		NumCPU  int    `json:"num_cpu"`
		Results []struct {
			Name       string  `json:"name"`
			GoMaxProcs int     `json:"go_maxprocs"`
			Workers    int     `json:"workers"`
			Served     int     `json:"served"`
			Revenue    float64 `json:"revenue"`
			Seconds    float64 `json:"seconds"`
			Latency    *struct {
				N     int64   `json:"n"`
				P50   float64 `json:"p50_ms"`
				P95   float64 `json:"p95_ms"`
				P99   float64 `json:"p99_ms"`
				P999  float64 `json:"p999_ms"`
				MaxMs float64 `json:"max_ms"`
			} `json:"latency"`
			SpeedupVsProcs1 float64 `json:"speedup_vs_procs1"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench -maxprocs output is not valid JSON: %v", err)
	}
	if report.Schema != "rideshare-bench/v1" || report.NumCPU < 1 {
		t.Fatalf("schema %q, num_cpu %d", report.Schema, report.NumCPU)
	}
	if len(report.Results) != 2 {
		t.Fatalf("results = %d, want 2 legs", len(report.Results))
	}
	base := report.Results[0]
	sawMulti := false
	for i, r := range report.Results {
		if r.GoMaxProcs != i+1 {
			t.Fatalf("leg %d go_maxprocs = %d, want %d", i, r.GoMaxProcs, i+1)
		}
		if r.GoMaxProcs > 1 {
			sawMulti = true
		}
		if r.Workers != r.GoMaxProcs {
			t.Fatalf("leg %d workers = %d, want to follow go_maxprocs %d", i, r.Workers, r.GoMaxProcs)
		}
		if r.Served != base.Served || r.Revenue != base.Revenue {
			t.Fatalf("leg %d books diverged: served %d/%d revenue %g/%g",
				i, r.Served, base.Served, r.Revenue, base.Revenue)
		}
		if r.Seconds <= 0 {
			t.Fatalf("leg %d non-positive timing", i)
		}
		l := r.Latency
		if l == nil || l.N == 0 {
			t.Fatalf("leg %d missing latency columns: %+v", i, r)
		}
		if !(l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.MaxMs) {
			t.Fatalf("leg %d latency percentiles unordered: %+v", i, *l)
		}
		if l.P50 <= 0 {
			t.Fatalf("leg %d latency p50 not populated: %+v", i, *l)
		}
	}
	if !sawMulti {
		t.Fatal("no leg ran with go_maxprocs > 1")
	}
	if base.SpeedupVsProcs1 != 0 {
		t.Fatalf("first leg carries speedup_vs_procs1 %g", base.SpeedupVsProcs1)
	}
	if report.Results[1].SpeedupVsProcs1 <= 0 {
		t.Fatalf("second leg missing speedup_vs_procs1: %+v", report.Results[1])
	}
}

// TestCmdBenchStreamingWritesJSON: the -streaming suite records batch
// and service timings in pairs with the overhead column filled, under
// the same schema as the dispatch suite, and the served counts of each
// pair agree (the end-to-end differential check).
func TestCmdBenchStreamingWritesJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench3.json")
	if err := cmdBench([]string{"-streaming", "-drivers", "150", "-shards", "2", "-tasks", "60",
		"-reps", "1", "-out", out}); err != nil {
		t.Fatalf("bench -streaming: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name     string  `json:"name"`
			Mode     string  `json:"mode"`
			Seconds  float64 `json:"seconds"`
			Served   int     `json:"served"`
			Overhead float64 `json:"overhead_vs_batch"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bench -streaming output is not valid JSON: %v", err)
	}
	if report.Schema != "rideshare-bench/v1" {
		t.Fatalf("schema = %q", report.Schema)
	}
	// scan + one shard count, two modes each.
	if len(report.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(report.Results))
	}
	for i := 0; i < len(report.Results); i += 2 {
		batch, stream := report.Results[i], report.Results[i+1]
		if batch.Mode != "batch" || stream.Mode != "streaming" {
			t.Fatalf("pair %d modes: %q/%q", i, batch.Mode, stream.Mode)
		}
		if batch.Served != stream.Served {
			t.Fatalf("pair %d served diverged: %d vs %d", i, batch.Served, stream.Served)
		}
		if batch.Seconds <= 0 || stream.Seconds <= 0 {
			t.Fatalf("pair %d non-positive timing", i)
		}
	}
}
