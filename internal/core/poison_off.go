//go:build !poison

package core

// Poisoned recycling (poison.go) is compiled in by `-tags poison` only;
// in every other build its hooks are empty.

func poisonWindow(*winState) {}

func poisonAggregator(subAggregator) {}

func poisonPartition(*partEntry) {}
