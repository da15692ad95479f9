package device

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestKernelAccounting(t *testing.T) {
	d := New("test", RTX2080Ti())
	ran := false
	d.Kernel(1000, 2000, func() { ran = true })
	if !ran {
		t.Fatal("Kernel must run f")
	}
	s := d.Stats()
	if s.Kernels != 1 || s.Flops != 1000 || s.BytesMoved != 2000 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.SimTime < RTX2080Ti().LaunchOverhead {
		t.Fatal("sim time must include launch overhead")
	}
}

func TestNilDeviceIsNoop(t *testing.T) {
	var d *Device
	ran := false
	d.Kernel(1, 1, func() { ran = true })
	if !ran {
		t.Fatal("nil device must still run f")
	}
	d.Alloc(100)
	d.Free(100)
	if s := d.Stats(); s.Kernels != 0 {
		t.Fatal("nil device must not account")
	}
}

func TestAllocPeakTracking(t *testing.T) {
	d := Default()
	d.Alloc(100)
	d.Alloc(50)
	d.Free(120)
	d.Alloc(10)
	s := d.Stats()
	if s.AllocBytes != 40 {
		t.Fatalf("alloc = %d, want 40", s.AllocBytes)
	}
	if s.PeakBytes != 150 {
		t.Fatalf("peak = %d, want 150", s.PeakBytes)
	}
	d.ResetPeak()
	if d.Stats().PeakBytes != 40 {
		t.Fatal("ResetPeak must reset to current allocation")
	}
}

func TestFreeMoreThanAllocatedPanics(t *testing.T) {
	d := Default()
	d.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	d.Free(20)
}

func TestCostModelRoofline(t *testing.T) {
	m := CostModel{FlopsPerSec: 1e9, BytesPerSec: 1e9, LaunchOverhead: time.Microsecond}
	// Compute-bound: 1e9 flops at 1e9 flops/s = 1s, dominates 1 byte.
	if got := m.KernelTime(1e9, 1); got < time.Second {
		t.Fatalf("compute-bound kernel time %v too small", got)
	}
	// Memory-bound: the larger phase wins, they overlap.
	ct := m.KernelTime(1e6, 1e9)
	if ct < time.Second || ct > time.Second+10*time.Millisecond {
		t.Fatalf("memory-bound kernel time %v, want ~1s", ct)
	}
}

func TestResetTime(t *testing.T) {
	d := Default()
	d.Kernel(10, 10, func() {})
	d.ResetTime()
	if s := d.Stats(); s.Kernels != 0 || s.SimTime != 0 || s.ActiveTime != 0 {
		t.Fatalf("ResetTime left counters: %+v", s)
	}
}

func TestUtilizationClamp(t *testing.T) {
	if u := Utilization(2*time.Second, time.Second); u != 1 {
		t.Fatalf("utilization must clamp to 1, got %v", u)
	}
	if u := Utilization(time.Second, 4*time.Second); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	if u := Utilization(time.Second, 0); u != 0 {
		t.Fatal("zero elapsed must give zero utilization")
	}
}

func TestDeviceConcurrentSafety(t *testing.T) {
	d := Default()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.Kernel(10, 10, func() {})
				d.Alloc(8)
				d.Free(8)
			}
		}()
	}
	wg.Wait()
	if s := d.Stats(); s.Kernels != 800 {
		t.Fatalf("kernels = %d, want 800", s.Kernels)
	}
}

func TestClusterBasics(t *testing.T) {
	c := NewCluster(4, RTX2080Ti(), PCIe3x16())
	if c.Size() != 4 || c.Devices[3].Name != "cuda:3" {
		t.Fatalf("bad cluster: %+v", c)
	}
	c.Devices[2].Kernel(1e9, 1e6, func() {})
	if c.MaxSimTime() != c.Devices[2].Stats().SimTime {
		t.Fatal("MaxSimTime must report the slowest device")
	}
	c.ResetTime()
	if c.MaxSimTime() != 0 {
		t.Fatal("ResetTime must clear all devices")
	}
}

func TestClusterTransferScaling(t *testing.T) {
	c1 := NewCluster(1, RTX2080Ti(), PCIe3x16())
	c2 := NewCluster(2, RTX2080Ti(), PCIe3x16())
	c8 := NewCluster(8, RTX2080Ti(), PCIe3x16())
	if c1.AllReduceTime(1e6) != 0 {
		t.Fatal("single device needs no all-reduce")
	}
	if c8.AllReduceTime(1e6) <= c2.AllReduceTime(1e6) {
		t.Fatal("all-reduce cost must grow with device count")
	}
	if c1.ScatterTime(1e6) != 0 {
		t.Fatal("single device needs no scatter")
	}
	if c8.ScatterTime(8e6) <= c2.ScatterTime(8e6) {
		t.Fatal("scatter cost must grow with device count")
	}
}

func TestNewClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero devices")
		}
	}()
	NewCluster(0, RTX2080Ti(), PCIe3x16())
}

func TestKernelTracing(t *testing.T) {
	d := Default()
	d.Kernel(1, 1, func() {}) // before tracing: not recorded
	d.EnableTrace(0)
	d.Kernel(100, 200, func() {})
	d.Kernel(300, 400, func() {})
	events := d.Trace()
	if len(events) != 2 {
		t.Fatalf("traced %d events, want 2", len(events))
	}
	if events[0].Flops != 100 || events[1].Bytes != 400 {
		t.Fatalf("event payloads wrong: %+v", events)
	}
	if events[1].Start < events[0].Start {
		t.Fatal("events must be time ordered")
	}
	if events[0].SimDur <= 0 {
		t.Fatal("sim duration missing")
	}
	d.DisableTrace()
	d.Kernel(1, 1, func() {})
	if len(d.Trace()) != 2 {
		t.Fatal("DisableTrace must stop recording")
	}
}

func TestTraceCapAndChromeExport(t *testing.T) {
	d := Default()
	d.EnableTrace(3)
	for i := 0; i < 10; i++ {
		d.Kernel(int64(i), 8, func() {})
	}
	if got := len(d.Trace()); got != 3 {
		t.Fatalf("cap ignored: %d events", got)
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceSpans(&buf, d.Trace(), nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	// Two tracks per kernel: host (tid 0) and modeled device (tid 1).
	if len(events) != 6 {
		t.Fatalf("chrome events %d, want 6", len(events))
	}
	if events[0]["ph"] != "X" {
		t.Fatal("must emit complete events")
	}
	// EnableTrace resets a previous trace.
	d.EnableTrace(0)
	if len(d.Trace()) != 0 {
		t.Fatal("EnableTrace must reset")
	}
}
