//go:build race

package tasks

// raceEnabled reports that this test binary runs under the race
// detector, which deliberately drops sync.Pool items — allocation
// guards are meaningless there and skip themselves.
const raceEnabled = true
