package traced_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/perfbench/bench"
	"repro/perfbench/e2e"
	"repro/perfbench/traced"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// the runners against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsTiny runs every workload at a tiny size through both
// runners and checks that every metric BENCHMARK.json names is emitted
// with its unit, that span self times are non-negative and top-level
// spans cover the traced wall, and that only the network workload
// calls the router.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(bench.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runners define %d", len(spec.Workloads), len(bench.Workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != bench.Workloads[i].Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the runners", i, sw.Name, bench.Workloads[i].Name)
		}
	}
	for _, w := range bench.Workloads {
		w.Drivers, w.Orders = w.Drivers/50, w.Orders/50
		t.Run(w.Name, func(t *testing.T) {
			t.Chdir(t.TempDir())
			rep, err := e2e.Run(w, 1, 0.01, 0)
			if err != nil {
				t.Fatalf("e2e: %v", err)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("e2e metric %s = %+v, want one in %s", m.Name, got, m.Unit)
				}
			}
			if len(rep.Metrics) != len(spec.EndToEnd) {
				t.Errorf("e2e emits %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(spec.EndToEnd))
			}

			tr, err := traced.Run(w, 1, "spans.csv")
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if err := tr.Check(0.9); err != nil {
				t.Error(err)
			}
			for _, m := range spec.PerLayer {
				if got, ok := tr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v, want one in %s", m.Name, got, m.Unit)
				}
			}
			if len(tr.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced emits %d metrics, BENCHMARK.json names %d", len(tr.Metrics), len(spec.PerLayer))
			}
			for name, v := range tr.Metrics {
				if strings.HasPrefix(name, "roadnet.") && strings.HasSuffix(name, ".calls") && (v.Value > 0) != w.Network {
					t.Errorf("%s = %v on a workload with network routing %v", name, v.Value, w.Network)
				}
			}
			if _, err := os.Stat(tr.SpansFile); err != nil {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

// TestMappingDocumented checks that METRICS.md names, for every
// per-layer metric, the end-to-end metric it should move.
func TestMappingDocumented(t *testing.T) {
	spec := readSpec(t)
	doc, err := os.ReadFile("../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if !strings.Contains(string(doc), "`"+m.Name+"`") {
			t.Errorf("METRICS.md does not map per-layer metric %s", m.Name)
		}
	}
}
