// Package store is bench/'s native shim: the engine names and the
// per-partition store factory bench/ builds the native runtime from. An
// engine name chooses nothing natively: every engine runs on the one
// partition store, cds.BTree. The simulated engines, each name's hybrid,
// are registered in internal/exp; the two lists hold the same names in
// the same order, which the conformance suite checks.
package store

import (
	"hybrids/internal/cds"
	"hybrids/internal/core"
)

// Tuning is empty: it stays only because bench/ writes
// NewNative(store.Tuning{}); the next benchmark change drops the
// parameter.
type Tuning struct{}

// Engine is one engine name on the native stack.
type Engine struct {
	// Name is the engine's registry key (the benchmark's engine field).
	Name string
}

// NewNative returns the per-partition store factory the native runtime
// (internal/core) consumes. It is the same for every engine: a partition
// has one holder at a time, so its store is sequential, and cds.BTree is
// the one such store (DESIGN §5.7).
func (Engine) NewNative(Tuning) func(partition int) core.Store {
	return func(int) core.Store { return cds.NewBTree() }
}

// Engines returns every engine in registration order: exp.Engines' names.
func Engines() []Engine {
	return []Engine{{"btree"}, {"skiplist"}, {"bskiplist"}}
}

// MustEngine returns the engine registered under name, panicking on an
// unknown name — every caller's names are compiled in.
func MustEngine(name string) Engine {
	for _, e := range Engines() {
		if e.Name == name {
			return e
		}
	}
	panic("store: unknown engine " + name)
}
