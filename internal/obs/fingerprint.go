package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Fingerprint returns the hex SHA-256 of v's JSON encoding. The derived
// views (insight, lifecycle) stamp it on every snapshot they serve: their
// renderings are deterministic in the event history, so equal states get
// equal fingerprints, and a live engine and a cold WAL replay compare by
// one string. v must marshal by construction (structs of scalars, slices
// and maps); a marshal failure is a programming error and panics.
func Fingerprint(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic("obs: fingerprint marshal: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
