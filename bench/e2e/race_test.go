//go:build race

package main

// raceEnabled: the race detector slows the smoke run several times over,
// so its wall-clock budget applies to plain builds only.
const raceEnabled = true
