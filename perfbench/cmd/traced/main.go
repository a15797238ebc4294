// Command traced is the benchmark's traced run: it replays one
// workload's day untraced, traced through the engine's wrapped seams,
// and through the batch simulator; checks that all three settle the
// same books; writes the spans and a fingerprinted results file under
// .bench_build/results; and prints the per-layer metrics as the last
// line of its output.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload batched-network --seed 1 --seconds 39 --trace 1
package main

import (
	"fmt"
	"os"

	"repro/perfbench/bench"
	"repro/perfbench/traced"
)

// minCover is the share of the traced wall time top-level spans must
// cover: the rest is the replay loop between calls.
const minCover = 0.95

func main() {
	args, err := bench.ParseArgs("traced", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stem := fmt.Sprintf("%s-seed%d-traced", args.Workload.Name, args.Seed)
	rep, runErr := traced.Run(args.Workload, args.Seed, stem+".spans.csv")
	if runErr == nil {
		runErr = rep.Check(minCover)
	}
	file := struct {
		Fingerprint bench.Fingerprint `json:"fingerprint"`
		Error       string            `json:"error,omitempty"`
		traced.Report
	}{Fingerprint: bench.NewFingerprint(args, "."), Report: rep}
	if runErr != nil {
		file.Error = runErr.Error()
	}
	if path, err := bench.WriteResults(stem+".json", file); err != nil && runErr == nil {
		runErr = fmt.Errorf("writing results: %w", err)
	} else if err == nil {
		fmt.Printf("results: %s, spans: %s (books compared: %v)\n", path, rep.SpansFile, rep.Books)
	}
	line := bench.Line{Correct: runErr == nil, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: rep.Metrics}
	os.Exit(bench.Finish(os.Stdout, line, runErr))
}
