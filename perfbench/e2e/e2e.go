// Package e2e is the benchmark's end-to-end runner: it replays a
// workload's day through the public serving surface — dispatch.Service
// in process, or fed.MarketHandler over loopback HTTP — and measures
// what a user of the market sees. It imports nothing from the engine's
// internals, so a change to their seams cannot change these numbers
// without changing the program they measure.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/dispatch"
	"repro/internal/fed"
	"repro/perfbench/bench"
)

// MemDelta is the runtime.MemStats movement over one replay.
type MemDelta struct {
	Mallocs    uint64  `json:"mallocs"`
	TotalBytes uint64  `json:"total_alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseS   float64 `json:"gc_pause_s"`
}

func memDelta(a, b *runtime.MemStats) MemDelta {
	return MemDelta{
		Mallocs:    b.Mallocs - a.Mallocs,
		TotalBytes: b.TotalAlloc - a.TotalAlloc,
		GCCycles:   b.NumGC - a.NumGC,
		GCPauseS:   float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}
}

// Replay is one day replayed through a fresh service.
type Replay struct {
	SetupS float64 `json:"setup_s"` // dispatch.New (plus the listener) through ready
	WallS  float64 `json:"wall_s"`  // first operation through Close returning
	Orders int     `json:"orders"`  // orders the service accepted

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	Books bench.Books `json:"books"`
	Mem   MemDelta    `json:"mem"`
	// LiveMB is the heap still in use, after a collection, by the
	// closed service and the day it replayed.
	LiveMB float64 `json:"live_mb"`
	// StealFrac is the share of the CPU time the machine's CPUs asked
	// for during the replay that the hypervisor gave to another guest
	// (bench.StealMeter).
	StealFrac float64 `json:"host_steal_frac"`

	// Submit holds, in process, each order's SubmitTask call in seconds.
	Submit []float64 `json:"-"`

	// Open loop only: per operation, how late it was sent (Lag) and its
	// client round trip (RTT), both in seconds; the restored service's
	// books and how long dispatch.Restore took.
	Lag          []float64   `json:"-"`
	RTT          []float64   `json:"-"`
	interval     float64     // seconds between due send times
	RestoreS     float64     `json:"restore_s,omitempty"`
	RestoreBooks bench.Books `json:"restore_books,omitempty"`
}

func (r *Replay) fail(err error) {
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// Check verifies the replay's books identity, and on an open loop that
// the restored service settled the same books.
func (r *Replay) Check(w bench.Workload) error {
	if err := r.Books.Check(); err != nil {
		return err
	}
	if w.HTTP {
		return bench.SameBooks([]string{"closed", "restored"}, []bench.Books{r.Books, r.RestoreBooks})
	}
	return nil
}

// Wrap, when non-nil, wraps the market's HTTP handler (the traced run
// times the handler with it).
type Wrap func(http.Handler) http.Handler

// ReplayDay replays the day once through a fresh service. scratch is a
// directory for the write-ahead log of an HTTP workload.
func ReplayDay(w bench.Workload, day *bench.Day, scratch string, wrap Wrap) (Replay, error) {
	runtime.GC()
	if w.HTTP {
		return replayHTTP(w, day, scratch, wrap)
	}
	return replayInProcess(w, day)
}

func replayInProcess(w bench.Workload, day *bench.Day) (Replay, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := Replay{Submit: make([]float64, 0, len(day.Tasks))}
	t0 := time.Now()
	svc, err := dispatch.New(day.Market, w.Options("")...)
	if err != nil {
		return r, fmt.Errorf("dispatch.New: %w", err)
	}
	r.SetupS = time.Since(t0).Seconds()

	ctx := context.Background()
	start := time.Now()
	for _, op := range day.Ops {
		t := time.Now()
		err := apply(ctx, svc, day, op)
		end := time.Now()
		r.Attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		if op.Kind == bench.OpSubmit {
			r.Submit = append(r.Submit, end.Sub(t).Seconds())
			r.Orders++
		}
	}
	stats, err := svc.Close()
	r.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("Close: %w", err)
	}
	r.Books = bench.StatsBooks(stats)
	r.Mem = memDelta(&m0, &m1)
	r.LiveMB = liveMB()
	runtime.KeepAlive(svc)
	return r, nil
}

// liveMB collects twice, so buffers parked in sync.Pools (which survive
// one collection in the pools' victim cache) are not counted, and
// returns the heap still in use.
func liveMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func apply(ctx context.Context, svc *dispatch.Service, day *bench.Day, op bench.Op) error {
	switch op.Kind {
	case bench.OpSubmit:
		_, err := svc.SubmitTask(ctx, day.Tasks[op.Index])
		return err
	case bench.OpRetire:
		return svc.RetireDriver(ctx, op.Index, op.At)
	default:
		_, err := svc.CancelTask(ctx, op.Index, op.At)
		return err
	}
}

// server is a market behind a loopback listener.
type server struct {
	svc  *dispatch.Service
	srv  *http.Server
	base string
	done chan error
}

// startServer builds the workload's durable service in dir and serves
// it on a loopback port.
func startServer(w bench.Workload, market dispatch.Market, dir string, wrap Wrap) (*server, error) {
	svc, err := dispatch.New(market, w.Options(dir)...)
	if err != nil {
		return nil, fmt.Errorf("dispatch.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := fed.MarketHandler(svc, nil)
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// closes the service.
func (s *server) stop() (dispatch.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := s.srv.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && serr == nil {
		serr = err
	}
	stats, err := s.svc.Close()
	if err == nil {
		err = serr
	}
	return stats, err
}

func replayHTTP(w bench.Workload, day *bench.Day, dir string, wrap Wrap) (Replay, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := Replay{Lag: make([]float64, 0, len(day.Ops)), RTT: make([]float64, 0, len(day.Ops))}
	t0 := time.Now()
	srv, err := startServer(w, day.Market, dir, wrap)
	if err != nil {
		return r, err
	}
	r.SetupS = time.Since(t0).Seconds()

	// One connection: with several in flight the service sees the
	// operations in a racy order and the books change from run to run.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer tr.CloseIdleConnections()

	r.interval = float64(len(day.Tasks)) / (w.OrderRate * float64(len(day.Ops)))
	interval := time.Duration(r.interval * float64(time.Second))
	start := time.Now()
	for k, op := range day.Ops {
		due := time.Duration(k) * interval
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := send(client, srv.base, day, op)
		rtt := time.Since(sent)
		r.Attempted++
		r.Lag = append(r.Lag, (sent.Sub(start) - due).Seconds())
		r.RTT = append(r.RTT, rtt.Seconds())
		if err != nil {
			r.fail(err)
			continue
		}
		if op.Kind == bench.OpSubmit {
			r.Orders++
		}
	}
	stats, err := srv.stop()
	r.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("stopping the market: %w", err)
	}
	r.Books = bench.StatsBooks(stats)
	r.Mem = memDelta(&m0, &m1)
	r.LiveMB = liveMB()
	runtime.KeepAlive(srv)

	t := time.Now()
	rs, err := dispatch.Restore(dir)
	if err != nil {
		return r, fmt.Errorf("dispatch.Restore: %w", err)
	}
	r.RestoreS = time.Since(t).Seconds()
	rstats, err := rs.Snapshot(context.Background())
	if _, cerr := rs.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return r, fmt.Errorf("restored service: %w", err)
	}
	r.RestoreBooks = bench.StatsBooks(rstats)
	return r, nil
}

// openLoop returns each order's latency on the open loop: its wait for
// the connection past its due time plus its round trip, with every
// round trip scaled by keep. The wait is computed from the due times and
// the round trips of the operations before it, as a punctual generator
// sending operation k at k·interval over one connection would see it
// (Lindley's recursion): queueing behind a slow answer counts in full,
// while the generator's own oversleep — the runtime's idle timers wake
// up to a millisecond late — is not charged to the market.
func openLoop(day *bench.Day, interval float64, rtt []float64, keep float64) []float64 {
	lat := make([]float64, 0, len(day.Tasks))
	free := 0.0 // when the connection frees up on the punctual schedule
	for k, d := range rtt {
		due := float64(k) * interval
		free = max(free, due) + d*keep
		if day.Ops[k].Kind == bench.OpSubmit {
			lat = append(lat, free-due)
		}
	}
	return lat
}

// netLatencies returns the replay's order latencies in seconds with
// every measured duration counted net of steal, that is times
// 1 − StealFrac: in process the SubmitTask calls; on the open loop each
// order's wait for the connection past its due send time plus its round
// trip (openLoop).
func (r *Replay) netLatencies(day *bench.Day) []float64 {
	keep := 1 - r.StealFrac
	if r.RTT != nil {
		return openLoop(day, r.interval, r.RTT, keep)
	}
	lat := make([]float64, len(r.Submit))
	for i, d := range r.Submit {
		lat[i] = d * keep
	}
	return lat
}

// send posts one operation and reads its answer; any status but 200,
// 429 included, is a failure.
func send(client *http.Client, base string, day *bench.Day, op bench.Op) error {
	var url string
	var body any
	switch op.Kind {
	case bench.OpSubmit:
		url, body = base+"/v1/tasks", day.Tasks[op.Index]
	case bench.OpRetire:
		url, body = fmt.Sprintf("%s/v1/drivers/%d/retire", base, op.Index), map[string]float64{"at": op.At}
	default:
		url, body = fmt.Sprintf("%s/v1/tasks/%d/cancel", base, op.Index), map[string]float64{"at": op.At}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if op.Kind == bench.OpSubmit {
		var a dispatch.Assignment
		if err := json.Unmarshal(msg, &a); err != nil || a.TaskID != day.Tasks[op.Index].ID {
			return fmt.Errorf("%s: unexpected answer %q", url, msg)
		}
	}
	return nil
}

// setupOnce builds the workload's service (and listener) and tears it
// down, returning how long the build took.
func setupOnce(w bench.Workload, day *bench.Day, scratch string) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if w.HTTP {
		srv, err := startServer(w, day.Market, scratch, nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		_, err = srv.stop()
		return d, err
	}
	svc, err := dispatch.New(day.Market, w.Options("")...)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	_, err = svc.Close()
	return d, err
}

// Scratch makes an empty directory for one replay's write-ahead log.
func Scratch() (string, func(), error) {
	if err := os.MkdirAll(bench.OutDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(bench.OutDir, "wal-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
