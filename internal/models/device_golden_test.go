package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/fw"
	"repro/internal/fw/dglb"
	"repro/internal/fw/pygeo"
	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// deviceLine renders the counted-work side of a device snapshot: everything
// but ActiveTime, the host wall clock.
func deviceLine(stage string, s device.Stats) string {
	return fmt.Sprintf("  %-8s kernels=%d flops=%d bytes=%d sim=%d peak=%d total_alloc=%d alloc=%d\n",
		stage, s.Kernels, s.Flops, s.BytesMoved, int64(s.SimTime), s.PeakBytes, s.TotalallocF, s.AllocBytes)
}

// logitsHash digests a tensor's shape and bit patterns.
func logitsHash(t *tensor.Tensor) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range t.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%v %x", t.Shape(), h.Sum(nil)[:12])
}

// TestDeviceAccountingGolden holds what the simulated device is charged for
// every forward-only pass to a golden file: for every architecture New builds,
// on both backends and for both tasks, one Infer, one CompiledInfer record
// and two replays on a fresh 2080Ti, then Close. Each stage appends the
// cumulative kernel count, FLOPs, bytes moved, simulated time, peak and
// cumulative allocation, plus the logits' bit patterns. The simulated device
// is the reproduction's clock (eval passes feed the modelled epoch), so a
// host-side change to how a forward pass executes must leave this file
// untouched.
func TestDeviceAccountingGolden(t *testing.T) {
	var got bytes.Buffer
	for _, be := range []fw.Backend{pygeo.New(), dglb.New()} {
		for _, task := range []struct {
			name string
			cfg  Config
		}{{"graph", graphCfg()}, {"node", nodeCfg()}} {
			for _, name := range everyModel() {
				m := New(name, be, task.cfg)
				b := tinyBatch(be, 10, 3, task.cfg.In)
				dev := device.Default()
				fmt.Fprintf(&got, "%s/%s/%s\n", name, be.Name(), task.name)

				logits := Infer(m, b, dev)
				got.WriteString(deviceLine("infer", dev.Stats()))
				fmt.Fprintf(&got, "  logits   %s\n", logitsHash(logits))

				ci := NewCompiledInfer(m, dev, tensor.F64)
				if h := logitsHash(ci.Forward(b)); h != logitsHash(logits) {
					t.Errorf("%s/%s/%s: compiled record %s, Infer %s", name, be.Name(), task.name, h, logitsHash(logits))
				}
				got.WriteString(deviceLine("record", dev.Stats()))
				for i, seed := range []uint64{3, 4} {
					out := ci.Forward(perturb(b, seed))
					got.WriteString(deviceLine(fmt.Sprintf("replay%d", i+1), dev.Stats()))
					fmt.Fprintf(&got, "  logits   %s\n", logitsHash(out))
				}
				ci.Close()
				got.WriteString(deviceLine("close", dev.Stats()))
			}
		}
	}

	path := filepath.Join("testdata", "device_accounting.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("device accounting differs from %s (rerun with -update only if the simulated kernel stream is meant to change)\ngot:\n%swant:\n%s",
			path, got.String(), want)
	}
}
