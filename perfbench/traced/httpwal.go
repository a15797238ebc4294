package traced

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/wal"
	"repro/perfbench/bench"
	"repro/perfbench/e2e"
)

// handlerTimer is a middleware recording how long the market handler
// took for each request, in arrival order. The open loop sends over
// one connection and waits for each answer, so the k-th request timed
// here is the k-th operation the client sent.
type handlerTimer struct {
	mu  sync.Mutex
	dur []float64
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start).Seconds()
		h.mu.Lock()
		h.dur = append(h.dur, d)
		h.mu.Unlock()
	})
}

// httpLeg is the open loop replayed again with the handler timed, and
// what its write-ahead log holds.
type httpLeg struct {
	replay    e2e.Replay
	handler   []float64
	transport []float64 // client round trip minus handler time, seconds
	wal       walProfile
}

func replayHTTP(w bench.Workload, day *bench.Day) (httpLeg, error) {
	var leg httpLeg
	dir, cleanup, err := e2e.Scratch()
	if err != nil {
		return leg, err
	}
	defer cleanup()
	ht := &handlerTimer{}
	leg.replay, err = e2e.ReplayDay(w, day, dir, ht.wrap)
	if err != nil {
		return leg, err
	}
	if len(ht.dur) != len(leg.replay.RTT) {
		return leg, fmt.Errorf("handler timed %d requests, client sent %d", len(ht.dur), len(leg.replay.RTT))
	}
	leg.handler = ht.dur
	for k, rtt := range leg.replay.RTT {
		leg.transport = append(leg.transport, rtt-ht.dur[k])
	}
	leg.wal, err = profileWAL(dir, len(day.Tasks))
	return leg, err
}

// walProfile describes a run's write-ahead log and what re-writing it
// costs.
type walProfile struct {
	Records         int     `json:"records"`
	BytesPerOrder   float64 `json:"bytes_per_order"`
	Snapshots       int     `json:"snapshots"`
	SnapshotBytes   int     `json:"snapshot_bytes"`
	AppendUs        float64 `json:"append_replay_us"`
	SyncMs          float64 `json:"sync_replay_ms"`
	SnapshotWriteMs float64 `json:"snapshot_write_replay_ms"`
}

// profileWAL reads the log a closed service left in dir and re-writes
// its records and newest snapshot through a fresh log with the run's
// options: an append per record, a sync every 1024 records, and a
// snapshot wherever the service's cadence cut one.
func profileWAL(dir string, orders int) (walProfile, error) {
	var p walProfile
	rec, err := wal.Recover(dir)
	if err != nil {
		return p, fmt.Errorf("wal.Recover: %w", err)
	}
	p.SnapshotBytes = len(rec.Snapshot)

	// Recover answers only the records after the newest snapshot; the
	// segments alone, without snapshots, give the whole day.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		return p, fmt.Errorf("no log segments in %s", dir)
	}
	work, err := os.MkdirTemp(bench.OutDir, "walcopy-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(work)
	var segBytes int64
	for _, s := range segs {
		n, err := copyFile(s, filepath.Join(work, "log", filepath.Base(s)))
		if err != nil {
			return p, err
		}
		segBytes += n
	}
	all, err := wal.Recover(filepath.Join(work, "log"))
	if err != nil {
		return p, fmt.Errorf("wal.Recover of the segments: %w", err)
	}
	if all.NextLSN != rec.NextLSN || len(all.Records) != int(all.NextLSN) {
		return p, fmt.Errorf("segments hold %d of %d records", len(all.Records), rec.NextLSN)
	}
	p.Records = len(all.Records)
	p.BytesPerOrder = float64(segBytes) / float64(orders)

	lg, err := wal.Create(filepath.Join(work, "replay"), wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return p, err
	}
	var appendS, syncs, snaps []float64
	since := 1 // the genesis record
	for i, r := range all.Records {
		last := i == len(all.Records)-1
		if last || i > 0 && since >= bench.SnapshotEvery {
			t := time.Now()
			if err := lg.WriteSnapshot(rec.Snapshot); err != nil {
				lg.Close()
				return p, err
			}
			snaps = append(snaps, time.Since(t).Seconds())
			since = 0
		}
		t := time.Now()
		if _, err := lg.Append(r.Data); err != nil {
			lg.Close()
			return p, err
		}
		appendS = append(appendS, time.Since(t).Seconds())
		if i > 0 {
			since++
		}
		if i%1024 == 1023 {
			t := time.Now()
			if err := lg.Sync(); err != nil {
				lg.Close()
				return p, err
			}
			syncs = append(syncs, time.Since(t).Seconds())
		}
	}
	if err := lg.Close(); err != nil {
		return p, err
	}
	p.Snapshots = len(snaps)
	p.AppendUs = bench.Median(appendS) * 1e6
	p.SyncMs = bench.Median(syncs) * 1e3
	p.SnapshotWriteMs = bench.Median(snaps) * 1e3
	return p, nil
}

func copyFile(src, dst string) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return 0, err
	}
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}
