// Command e2e is the benchmark's end-to-end run: it replays one
// workload's day through the public serving surface for the given
// number of seconds, checks the books, writes a fingerprinted results
// file under .bench_build/results and prints the end-to-end metrics as
// the last line of its output.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload instant-citywide --seed 1 --seconds 39 --trace 0
package main

import (
	"fmt"
	"os"

	"repro/perfbench/bench"
	"repro/perfbench/e2e"
)

func main() {
	args, err := bench.ParseArgs("e2e", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, runErr := e2e.Run(args.Workload, args.Seed, args.Seconds, 1000)
	file := struct {
		Fingerprint bench.Fingerprint `json:"fingerprint"`
		Error       string            `json:"error,omitempty"`
		e2e.Report
	}{Fingerprint: bench.NewFingerprint(args, "."), Report: rep}
	if runErr != nil {
		file.Error = runErr.Error()
	}
	name := fmt.Sprintf("%s-seed%d-e2e.json", args.Workload.Name, args.Seed)
	if path, err := bench.WriteResults(name, file); err != nil && runErr == nil {
		runErr = fmt.Errorf("writing results: %w", err)
	} else if err == nil {
		fmt.Printf("results: %s (fingerprint: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s)\n", path,
			file.Fingerprint.CPUModel, file.Fingerprint.NumCPU, file.Fingerprint.GOMAXPROCS,
			file.Fingerprint.GoVersion, file.Fingerprint.GitCommit)
	}
	line := bench.Line{Correct: runErr == nil, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: rep.Metrics}
	os.Exit(bench.Finish(os.Stdout, line, runErr))
}
