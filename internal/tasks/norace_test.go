//go:build !race

package tasks

const raceEnabled = false
