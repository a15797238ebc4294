package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// nonFinite are the values every float validation must refuse: each
// comparison with NaN is false, so a check written as "reject if
// x >= y" lets NaN through unless finiteness is tested first.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// TestNonFiniteTaskRejected: a submitted task with a NaN or infinite
// time or money field is refused with ErrInvalidTask and registers
// nothing, so the books stay finite (a NaN price used to be assigned
// and poison Revenue and Profit for the rest of the day).
func TestNonFiniteTaskRejected(t *testing.T) {
	ctx := context.Background()
	cfg := trace.NewConfig(3, 20, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, 0))
	}
	fields := []struct {
		name string
		set  func(*Task, float64)
	}{
		{"Publish", func(tk *Task, v float64) { tk.Publish = v }},
		{"StartBy", func(tk *Task, v float64) { tk.StartBy = v }},
		{"EndBy", func(tk *Task, v float64) { tk.EndBy = v }},
		{"Price", func(tk *Task, v float64) { tk.Price = v }},
		{"WTP", func(tk *Task, v float64) { tk.WTP = v }},
	}
	for _, f := range fields {
		for _, v := range nonFinite {
			t.Run(fmt.Sprintf("%s=%g", f.name, v), func(t *testing.T) {
				svc, err := New(m)
				if err != nil {
					t.Fatal(err)
				}
				bad := pubTask(0, tr.Tasks[0])
				f.set(&bad, v)
				if a, err := svc.SubmitTask(ctx, bad); !errors.Is(err, ErrInvalidTask) {
					t.Fatalf("SubmitTask = %+v, %v; want ErrInvalidTask", a, err)
				}
				if _, err := svc.Decision(ctx, bad.ID); !errors.Is(err, ErrUnknownTask) {
					t.Fatalf("rejected task registered: Decision err = %v", err)
				}
				for i := 1; i < len(tr.Tasks); i++ {
					if _, err := svc.SubmitTask(ctx, pubTask(i, tr.Tasks[i])); err != nil {
						t.Fatalf("SubmitTask(%d): %v", i, err)
					}
				}
				st, err := svc.Close()
				if err != nil {
					t.Fatal(err)
				}
				if st.Tasks != len(tr.Tasks)-1 || math.IsNaN(st.Revenue) || math.IsInf(st.Revenue, 0) ||
					math.IsNaN(st.Profit) || math.IsInf(st.Profit, 0) || math.IsNaN(st.Now) {
					t.Fatalf("books poisoned by a refused task: %+v", st)
				}
			})
		}
	}
}

// TestNonFiniteDriverRejected: a driver with a NaN or infinite working
// window, speed or join time is refused with ErrInvalidDriver, both in
// the initial roster and when announced to a running market.
func TestNonFiniteDriverRejected(t *testing.T) {
	ctx := context.Background()
	cfg := trace.NewConfig(3, 20, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	fields := []struct {
		name string
		set  func(*Driver, float64)
	}{
		{"Start", func(d *Driver, v float64) { d.Start = v }},
		{"End", func(d *Driver, v float64) { d.End = v }},
		{"SpeedKmh", func(d *Driver, v float64) { d.SpeedKmh = v }},
		{"JoinAt", func(d *Driver, v float64) { d.JoinAt = v }},
	}
	for _, f := range fields {
		for _, v := range nonFinite {
			t.Run(fmt.Sprintf("%s=%g", f.name, v), func(t *testing.T) {
				bad := pubDriver(99, tr.Drivers[0], 0)
				f.set(&bad, v)
				if _, err := New(Market{Drivers: []Driver{bad}}); !errors.Is(err, ErrInvalidDriver) {
					t.Fatalf("New with roster driver: %v, want ErrInvalidDriver", err)
				}
				svc, err := New(Market{Drivers: []Driver{pubDriver(0, tr.Drivers[0], 0)}})
				if err != nil {
					t.Fatal(err)
				}
				if err := svc.AddDriver(ctx, bad); !errors.Is(err, ErrInvalidDriver) {
					t.Fatalf("AddDriver: %v, want ErrInvalidDriver", err)
				}
				st, err := svc.Close()
				if err != nil {
					t.Fatal(err)
				}
				if st.Drivers != 1 {
					t.Fatalf("refused driver registered: %d drivers", st.Drivers)
				}
			})
		}
	}
}

// TestNonFiniteMarketRejected: a NaN or infinite market speed or gas
// price is refused — with ErrInvalidDriver, the sentinel New already
// returns for a negative speed — instead of opening a service whose
// every travel time or cost would be non-finite.
func TestNonFiniteMarketRejected(t *testing.T) {
	for _, v := range nonFinite {
		for name, m := range map[string]Market{
			"SpeedKmh": {SpeedKmh: v},
			"GasPerKm": {GasPerKm: v},
		} {
			if _, err := New(m); !errors.Is(err, ErrInvalidDriver) {
				t.Errorf("New(%s=%g) = %v, want ErrInvalidDriver", name, v, err)
			}
		}
	}
}

// TestNonFiniteTimestampRejected: CancelTask, RetireDriver and a
// retired driver's rejoin refuse a NaN or infinite time with a typed
// error, in strict and lenient mode, in memory and journaled. Nothing
// reaches the event queue or the journal: the books stay finite, and a
// journaled day restores and settles exactly like the service that
// refused them.
func TestNonFiniteTimestampRejected(t *testing.T) {
	cfg := trace.NewConfig(3, 20, 5, trace.Hitchhiking)
	tr := trace.NewGenerator(cfg).Generate(nil)
	m := Market{}
	for i, d := range tr.Drivers {
		m.Drivers = append(m.Drivers, pubDriver(i, d, 0))
	}
	for _, durable := range []bool{false, true} {
		for _, strict := range []bool{false, true} {
			for _, v := range nonFinite {
				t.Run(fmt.Sprintf("durable=%v/strict=%v/at=%g", durable, strict, v), func(t *testing.T) {
					checkNonFiniteTimes(t, tr, m, durable, strict, v)
				})
			}
		}
	}
}

// checkNonFiniteTimes runs one TestNonFiniteTimestampRejected case: a
// day over m whose cancel, retire and rejoin calls at time v must all be
// refused.
func checkNonFiniteTimes(t *testing.T, tr model.Trace, m Market, durable, strict bool, v float64) {
	ctx := context.Background()
	dir := t.TempDir()
	var opts []Option
	if durable {
		opts = append(opts, WithDurability(dir))
	}
	if strict {
		opts = append(opts, WithStrictTimes())
	}
	svc, err := New(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Tasks)/2; i++ {
		if _, err := svc.SubmitTask(ctx, pubTask(i, tr.Tasks[i])); err != nil {
			t.Fatalf("SubmitTask(%d): %v", i, err)
		}
	}
	if _, err := svc.CancelTask(ctx, 0, v); !errors.Is(err, ErrInvalidCancel) {
		t.Fatalf("CancelTask(at=%g) = %v, want ErrInvalidCancel", v, err)
	}
	if err := svc.RetireDriver(ctx, 0, v); !errors.Is(err, ErrInvalidDriver) {
		t.Fatalf("RetireDriver(at=%g) = %v, want ErrInvalidDriver", v, err)
	}
	now := tr.Tasks[len(tr.Tasks)/2-1].Publish
	if err := svc.RetireDriver(ctx, 1, now); err != nil {
		t.Fatalf("RetireDriver(1): %v", err)
	}
	rejoin := pubDriver(1, tr.Drivers[1], v)
	if err := svc.AddDriver(ctx, rejoin); !errors.Is(err, ErrInvalidDriver) {
		t.Fatalf("rejoin AddDriver(JoinAt=%g) = %v, want ErrInvalidDriver", v, err)
	}
	for i := len(tr.Tasks) / 2; i < len(tr.Tasks); i++ {
		if _, err := svc.SubmitTask(ctx, pubTask(i, tr.Tasks[i])); err != nil {
			t.Fatalf("SubmitTask(%d): %v", i, err)
		}
	}
	want, err := svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(want.Now) || math.IsInf(want.Now, 0) || math.IsNaN(want.Profit) {
		t.Fatalf("books poisoned by a refused time: %+v", want)
	}
	if !durable {
		return
	}
	restored, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after refused times: %v", err)
	}
	got, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	got.FeedDrops, want.FeedDrops = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored day diverged\nwant %+v\ngot  %+v", want, got)
	}
}
