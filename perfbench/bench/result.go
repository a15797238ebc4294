package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/dispatch"
)

// Books is what a replayed day settles to. Two replays of one day agree
// only if every field matches, the money fields bit for bit.
type Books struct {
	Tasks     int     `json:"tasks"`
	Served    int     `json:"served"`
	Rejected  int     `json:"rejected"`
	Cancelled int     `json:"cancelled"`
	Pending   int     `json:"pending"`
	Shed      int     `json:"shed"`
	Revenue   float64 `json:"revenue"`
	Profit    float64 `json:"profit"`
}

// StatsBooks reads the books from a service's Stats.
func StatsBooks(s dispatch.Stats) Books {
	return Books{
		Tasks: s.Tasks, Served: s.Served, Rejected: s.Rejected, Cancelled: s.Cancelled,
		Pending: s.Pending, Shed: s.Shed, Revenue: s.Revenue, Profit: s.Profit,
	}
}

// Check verifies the books identity: every registered task is served,
// rejected, cancelled or pending. Shed submissions never register and
// are counted apart.
func (b Books) Check() error {
	if b.Served+b.Rejected+b.Cancelled+b.Pending != b.Tasks {
		return fmt.Errorf("books identity broken: served %d + rejected %d + cancelled %d + pending %d != tasks %d",
			b.Served, b.Rejected, b.Cancelled, b.Pending, b.Tasks)
	}
	if b.Shed < 0 || math.IsNaN(b.Revenue) || math.IsNaN(b.Profit) {
		return fmt.Errorf("books hold an impossible value: %+v", b)
	}
	return nil
}

// Same reports whether two books are bit-identical.
func (b Books) Same(o Books) bool {
	return b.Tasks == o.Tasks && b.Served == o.Served && b.Rejected == o.Rejected &&
		b.Cancelled == o.Cancelled && b.Pending == o.Pending && b.Shed == o.Shed &&
		math.Float64bits(b.Revenue) == math.Float64bits(o.Revenue) &&
		math.Float64bits(b.Profit) == math.Float64bits(o.Profit)
}

// SameBooks returns an error naming the first of the labelled books
// that differs from the first one.
func SameBooks(labels []string, books []Books) error {
	for i := 1; i < len(books); i++ {
		if !books[i].Same(books[0]) {
			return fmt.Errorf("books differ: %s %+v, %s %+v", labels[0], books[0], labels[i], books[i])
		}
	}
	return nil
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Set records one metric.
func (m Metrics) Set(name string, v float64, unit string) { m[name] = Metric{v, unit} }

// Check verifies every metric is finite and carries a unit.
func (m Metrics) Check() error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", name, v.Value)
		}
		if v.Unit == "" {
			return fmt.Errorf("metric %s has no unit", name)
		}
	}
	return nil
}

// Line is the result line a run prints last on its standard output.
type Line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// Percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule, 0 for no samples.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// Median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Latency summarizes a set of latency samples in seconds: the median
// and the 99th percentile in milliseconds, and the sample count. It
// fails when the percentiles come out of order or the 99th percentile
// has fewer than ten samples beyond it.
type Latency struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// Summarize sorts samples in place and summarizes them. minSamples is
// the count below which the 99th percentile is refused.
func Summarize(samples []float64, minSamples int) (Latency, error) {
	sort.Float64s(samples)
	l := Latency{
		Samples: len(samples),
		P50Ms:   Percentile(samples, 0.50) * 1e3,
		P99Ms:   Percentile(samples, 0.99) * 1e3,
		MaxMs:   Percentile(samples, 1) * 1e3,
	}
	if len(samples) < minSamples {
		return l, fmt.Errorf("%d latency samples leave fewer than ten beyond the 99th percentile", len(samples))
	}
	if !(0 <= l.P50Ms && l.P50Ms <= l.P99Ms && l.P99Ms <= l.MaxMs) {
		return l, fmt.Errorf("latency percentiles out of order: %+v", l)
	}
	return l, nil
}

// Args are the command line every runner takes.
type Args struct {
	Workload Workload
	Seed     int64
	Seconds  float64
	Trace    bool
}

// ParseArgs parses --workload, --seed, --seconds and --trace.
func ParseArgs(name string, argv []string) (Args, error) {
	fset := flag.NewFlagSet(name, flag.ContinueOnError)
	wl := fset.String("workload", "", "workload name")
	seed := fset.Int64("seed", 1, "trace seed the day is generated from")
	seconds := fset.Float64("seconds", 10, "seconds to measure for")
	tr := fset.Int("trace", 0, "1 runs the traced run for the per-layer metrics")
	if err := fset.Parse(argv); err != nil {
		return Args{}, err
	}
	if fset.NArg() > 0 {
		return Args{}, fmt.Errorf("unexpected arguments %q", fset.Args())
	}
	w, err := Lookup(*wl)
	if err != nil {
		return Args{}, err
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return Args{}, fmt.Errorf("--seconds %v, want a positive number", *seconds)
	}
	if *tr != 0 && *tr != 1 {
		return Args{}, fmt.Errorf("--trace %d, want 0 or 1", *tr)
	}
	return Args{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *tr == 1}, nil
}

// Fingerprint identifies the host, the toolchain and the source a
// results file was measured with.
type Fingerprint struct {
	CPUModel     string  `json:"cpu_model"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	OS           string  `json:"os"`
	Arch         string  `json:"arch"`
	GitCommit    string  `json:"git_commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	RunSeconds   float64 `json:"run_seconds"`
	Trace        bool    `json:"trace"`
}

// NewFingerprint fingerprints this process for a run with the given
// arguments. root is the checkout whose sources are digested.
func NewFingerprint(a Args, root string) Fingerprint {
	return Fingerprint{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		GitCommit:    gitCommit(),
		SourceSHA256: sourceDigest(root),
		Workload:     a.Workload.Name,
		Seed:         a.Seed,
		RunSeconds:   a.Seconds,
		Trace:        a.Trace,
	}
}

// StealMeter measures how much of the CPU time this virtual machine's
// CPUs asked for the hypervisor gave to another guest instead, from the
// /proc/stat columns of all CPUs.
type StealMeter struct {
	busy, steal int64
	ok          bool
}

// NewStealMeter starts measuring.
func NewStealMeter() StealMeter {
	busy, steal, ok := cpuTicks()
	return StealMeter{busy, steal, ok}
}

// Frac returns the stolen share of the CPUs' demand since the meter
// started: steal ÷ (busy + steal). A thread that could run all along
// ran for 1 − Frac of the wall time. It is 0 where the kernel does not
// report steal.
func (m StealMeter) Frac() float64 {
	busy, steal, ok := cpuTicks()
	if !ok || !m.ok || busy+steal-m.busy-m.steal <= 0 {
		return 0
	}
	return float64(steal-m.steal) / float64(busy+steal-m.busy-m.steal)
}

// cpuTicks returns the busy (user, nice, system, irq, softirq) and the
// steal ticks of all CPUs.
func cpuTicks() (busy, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var t [8]int64
	for i := range t {
		if t[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	// user nice system idle iowait irq softirq steal
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7], true
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the revision the toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under root, so
// results from a checkout without git history still name the code they
// measured. Hidden directories (build outputs, VCS metadata) are
// skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OutDir is where runs write their results files and spans, relative
// to the checkout root; the build outputs live beside them.
const OutDir = ".bench_build"

// WriteResults writes v as indented JSON to name under OutDir/results.
func WriteResults(name string, v any) (string, error) {
	dir := filepath.Join(OutDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// Finish prints the result line and returns the process exit code:
// non-zero when the run is not correct or a metric is malformed.
func Finish(w io.Writer, line Line, runErr error) int {
	if runErr == nil {
		runErr = line.Metrics.Check()
	}
	if runErr != nil {
		line.Correct = false
		fmt.Fprintf(os.Stderr, "FAIL: %v\n", runErr)
	}
	if line.Metrics == nil {
		line.Metrics = Metrics{}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: encoding the result line: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}
