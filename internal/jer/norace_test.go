//go:build !race

package jer

const raceEnabled = false
