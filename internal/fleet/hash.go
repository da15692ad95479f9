package fleet

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/ag"
	"repro/internal/nn"
)

// ModelHash fingerprints a model's parameters: the SHA-256 of their nn.Save
// serialization (names, shapes and float64 bit patterns included). Both ends
// of the fleet handshake compute this over the weights they loaded from the
// checkpoint source, so a worker serving different weights than the
// coordinator expects — a stale checkpoint, a mismatched -model flag — is
// refused at connection time instead of silently answering with a different
// model.
func ModelHash(params []*ag.Parameter) ([32]byte, error) {
	h := sha256.New()
	if err := nn.Save(h, params); err != nil {
		return [32]byte{}, fmt.Errorf("fleet: hash model: %w", err)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// HashString renders a hash the way fleet errors and logs abbreviate it.
func HashString(h [32]byte) string { return fmt.Sprintf("%x", h[:8]) }
