package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

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
