package repro

import (
	"os"
	"testing"

	"repro/internal/tensor"
)

// TestMain poisons released pool buffers for the whole test binary. Every
// tape hands its buffers back at Finish, so a value read after Finish, or a
// kernel reading scratch it has already freed, turns NaN in whichever test
// or example does it.
func TestMain(m *testing.M) {
	tensor.SetPoolPoison(true)
	os.Exit(m.Run())
}
