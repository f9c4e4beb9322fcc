package doccheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// tree is what an architecture rule inspects: the repository's files, and
// the compiler's -gcflags=-m=2 diagnostics for a list of packages.
type tree struct {
	fs.FS
	inlining func(pkgs []string) (string, error)
}

// rule is one design decision checked against the sources. check returns
// what breaks it, reason states the decision, and violate is a fixture
// edit over cleanTree that must make the rule fire.
type rule struct {
	name    string
	check   func(tree) ([]string, error)
	reason  string
	violate map[string]string
}

// rules are the design decisions DESIGN.md argues for and no compiler
// enforces. A name's first segment groups the rows one decision needs.
var rules = []rule{
	// The two stacks share hds's request vocabulary, dsim/kv's 32-bit ops
	// and pairs, and nothing of the simulator's machinery: the offload
	// protocol and its in-flight window live in dsim/offload, the grids'
	// results and the simulated engine registry in exp, and the slow-op
	// log reports the two durations the server measures, not the
	// simulator's attribution buckets. The native binaries and every
	// package they link are held to it; store, bench/'s native shim, is
	// forbidden here only because no native binary needs it. The dsim
	// pattern is every package but kv (RE2 has no lookahead).
	{
		name: "native-off-simulator/imports",
		check: importsNone([]string{"cmd/hybridsd", "cmd/hybridsload", "internal/admin", "internal/core", "internal/server", "internal/ycsb"},
			`^hybrids/internal/(sim/|exp$|store$|dsim/([^k]|k[^v]|kv.))`),
		reason:  "the native binaries and their packages must not depend on a sim package, exp, store or a dsim package other than kv",
		violate: map[string]string{"cmd/hybridsload/main.go": "package main\n\nimport (\n\t_ \"hybrids/internal/dsim/kv\"\n\t_ \"hybrids/internal/exp\"\n)\n"},
	},
	// The other direction: the simulator, its experiment grids and its CLI
	// link none of the native runtime, and store, which bench/ builds the
	// native runtime from, links none of the simulator. Each stack owns its
	// registry: exp the simulated engines, store the native shim.
	{
		name: "simulator-off-native/imports",
		check: importsNone([]string{"cmd/hybrids", "internal/exp", "internal/dsim/...", "internal/sim/..."},
			`^hybrids/internal/(core|cds|server|admin|store)$`),
		reason:  "the simulator, exp and cmd/hybrids must not depend on core, cds, server, admin or store",
		violate: map[string]string{"internal/exp/runner.go": "package exp\n\nimport _ \"hybrids/internal/store\"\n"},
	},
	{
		name:    "simulator-off-native/store",
		check:   importsNone([]string{"internal/store"}, `^hybrids/internal/(sim/|dsim/|exp$)`),
		reason:  "internal/store must not depend on a sim or dsim package or exp",
		violate: map[string]string{"internal/store/store.go": "package store\n\nimport _ \"hybrids/internal/dsim/btree\"\n"},
	},
	// kv is the one dsim package the native binaries link, so it must
	// stay vocabulary: an interface over a simulated machine brings the
	// simulator in with it.
	{
		name:    "native-off-simulator/vocabulary",
		check:   importsNone([]string{"internal/dsim/kv"}, `^hybrids/internal/sim/`),
		reason:  "internal/dsim/kv must not depend on a sim package",
		violate: map[string]string{"internal/dsim/kv/kv.go": "package kv\n\nimport _ \"hybrids/internal/sim/machine\"\n"},
	},
	// A caller waits for a held partition with a spin of TryLocks on its
	// mutex, each one load while the lock is held, and then parks in Lock
	// (DESIGN §5.5). A yield in the spin, the buffered-channel mailbox,
	// its capacity knob or a reader-writer lock creeping back in is a
	// regression.
	{
		name:    "native-off-simulator/core-waits",
		check:   grep(files{globs: []string{"internal/core/*.go"}}, `Gosched|chan request|MailboxDepth|sync\.RWMutex`),
		reason:  "internal/core must wait for a partition by spinning TryLock and parking in Lock: no yield, request channel, MailboxDepth or RWMutex",
		violate: map[string]string{"internal/core/batch.go": "package core\n\nimport \"runtime\"\n\nfunc spin() { runtime.Gosched() }\n"},
	},
	// Every call completes under its partition's lock, in its own
	// goroutine: the caller applies its own ops and writes its own
	// outcomes (DESIGN §5.5). A publication list (an atomic.Pointer head),
	// a completion channel, a pending countdown or a future is a second
	// way to complete a call, for a holder that applies other callers'
	// ops. build.go is exempt, as in core-owns-no-goroutine. So is hot.go,
	// the host portion (DESIGN §5.8), for the one atomic.Pointer that
	// publishes a partition's table of pairs: a reader answers its own
	// read from it, and nothing is handed to a holder through it.
	{
		name: "core-one-completion",
		check: grep(files{globs: []string{"internal/core/*.go"}, except: []string{"internal/core/build.go"}},
			`chan struct\{\}|^[[:space:]]+pending[[:space:]]|^type[[:space:]]+future\b|futPool`),
		reason:  "internal/core must complete every call under its partition's lock, not through a list, countdown or future",
		violate: map[string]string{"internal/core/hybrid.go": "package core\n\ntype partition struct {\n\thead    atomic.Pointer[request]\n\tpending atomic.Int32\n}\n"},
	},
	{
		name: "core-one-completion/one-pointer",
		check: grep(files{globs: []string{"internal/core/*.go"}, except: []string{"internal/core/build.go", "internal/core/hot.go"}},
			`atomic\.Pointer\[`),
		reason:  "internal/core may hold an atomic.Pointer only in hot.go, to publish a partition's table",
		violate: map[string]string{"internal/core/batch.go": "package core\n\ntype Batcher struct{ head atomic.Pointer[request] }\n"},
	},
	// Under the lock nothing a call hands its partition leaves the
	// caller's stack or the partition (DESIGN §5.5): a scan visits
	// through the partition's own cursor, and a barrier's closure does not
	// escape. A sync.Pool is state that outlived a reason to share it.
	{
		name:    "core-no-pool",
		check:   grep(files{globs: []string{"internal/core/*.go"}}, `sync\.Pool\b`),
		reason:  "internal/core must not pool call state: a call's state lives on its caller's stack or in its partition",
		violate: map[string]string{"internal/core/hybrid.go": "package core\n\nvar cursorPool = sync.Pool{New: func() any { return new(scanCursor) }}\n"},
	},
	// A Batcher counts its host-portion hits in its partitions' striped
	// cells (DESIGN §5.8), so the map keeps no record of its callers and a
	// caller has nothing to hand back: a map keyed by Batcher, or a
	// Batcher.Close, is a registry and its lifecycle contract again.
	{
		name:    "core-no-caller-registry",
		check:   grep(files{globs: []string{"internal/core/*.go"}}, `map\[\*Batcher\]|func[[:space:]]*\([[:alnum:]_]*[[:space:]]*\*Batcher\)[[:space:]]*Close\(`),
		reason:  "internal/core must not register Batchers or ask for their Close: count hits in the partitions' striped cells",
		violate: map[string]string{"internal/core/batch.go": "package core\n\ntype Hybrid struct{ batchers map[*Batcher]struct{} }\n\nfunc (b *Batcher) Close() {}\n"},
	},
	// A round takes its partitions in routing order through partition.lock,
	// one at a time, like every other caller: a TryLock in the round is the
	// free-first pass again, a second way in that DESIGN §5.5's table weighs.
	{
		name:    "core-one-pass-round",
		check:   grep(files{globs: []string{"internal/core/batch.go"}}, `TryLock\(`),
		reason:  "internal/core/batch.go must take a round's partitions with partition.lock in routing order: no TryLock pass",
		violate: map[string]string{"internal/core/batch.go": "package core\n\nfunc (b *Batcher) free(p *partition) bool { return p.mu.TryLock() }\n"},
	},
	// Every server/ counter is one row of internal/server/stats.go's table,
	// which every view loops over; a second spelling of a name means a view
	// kept by hand again.
	{
		name:    "counter-declared-once/server-names",
		check:   once(files{globs: []string{"internal/server/*.go"}}, `"server/[^"]*"`),
		reason:  "server/ names spelled more than once in internal/server",
		violate: map[string]string{"internal/server/server.go": "package server\n\nconst requests = \"server/requests\"\n"},
	},
	// Each serving layer owns its instruments and is read only through its
	// ExportMetrics (DESIGN §5.5): the server counts in connStats cells,
	// and each core partition's own registry holds only its store's
	// counters, read only through a barrier. A registry instrument in the
	// server, or a registry handed to the core to be read raw, is a second
	// owner again.
	{
		name:    "serving-instruments-one-owner/server",
		check:   grep(files{globs: []string{"internal/server/*.go"}}, `\*metrics\.(Registry|Counter)\b|\*?metrics\.Histogram\b|metrics\.NewRegistry`),
		reason:  "internal/server must count in its own connStats cells, not in a metrics registry",
		violate: map[string]string{"internal/server/server.go": "package server\n\ntype Server struct{ hBatch metrics.Histogram }\n"},
	},
	{
		name:    "serving-instruments-one-owner/core-config",
		check:   noField(files{globs: []string{"internal/core/*.go"}}, "Config", "Metrics"),
		reason:  "core.Config must not take a Metrics registry: read the core through ExportMetrics",
		violate: map[string]string{"internal/core/hybrid.go": "package core\n\ntype Config struct {\n\tPartitions int\n\tMetrics    *metrics.Registry\n}\n"},
	},
	// A partition's holder stands in for its NMP core and counts every
	// round itself, in the partition's plain fields (DESIGN §5.5),
	// whichever way in the round took. A registry instrument in the core
	// is a second tally beside them, and with it the fold between the two.
	{
		name:    "core-one-tally",
		check:   grep(files{globs: []string{"internal/core/*.go"}}, `\*metrics\.Counter\b|\*?metrics\.Histogram\b|\.ObserveN?\(`),
		reason:  "internal/core must tally rounds in the partition's own fields, not in registry instruments",
		violate: map[string]string{"internal/core/hybrid.go": "package core\n\ntype partition struct{ hBatch metrics.Histogram }\n\nfunc (p *partition) round(n int) { p.hBatch.Observe(uint64(n)) }\n"},
	},
	// mem/ counters are read from the registry by name; a struct view
	// repeats every counter again. Test files count too.
	{
		name:    "counter-declared-once/memsys-stats",
		check:   grep(files{globs: []string{"internal/sim/memsys/*.go"}, tests: true}, `^type[[:space:]]+Stats\b|^[[:space:]]+Stats[[:space:]]+struct`),
		reason:  "internal/sim/memsys must not declare a Stats type: read mem/ counters from the registry",
		violate: map[string]string{"internal/sim/memsys/stats_test.go": "package memsys\n\ntype Stats struct{}\n"},
	},
	// A hybrid's host/NMP split is sized by exp.SimParams alone: the dsim
	// configs take plain level counts, and the one rule that moves the
	// split is a private type in internal/exp.
	{
		name:    "sizing-declared-once/no-boundary",
		check:   absent("internal/boundary"),
		reason:  "internal/boundary is back: size splits through exp.SimParams",
		violate: map[string]string{"internal/boundary/boundary.go": "package boundary\n"},
	},
	{
		name:    "sizing-declared-once/scale-embeds-simparams",
		check:   grep(files{globs: []string{"internal/exp/scale.go"}}, `^[[:space:]]+(Skiplist[A-Za-z]*|BTree[A-Za-z]*|BSkiplist[A-Za-z]*|KeyMax|Window|Seed)[[:space:]]+[^=:[:space:]]`),
		reason:  "internal/exp/scale.go re-declares an exp.SimParams field: use the embedded one",
		violate: map[string]string{"internal/exp/scale.go": "package exp\n\ntype Scale struct {\n\tSimParams\n\tKeyMax uint32\n}\n"},
	},
	// A partition is combined by whichever caller holds it (DESIGN §5.5); a
	// go statement or a WaitGroup means a resident combiner is back, a
	// close( means a channel is shut down again. build.go is exempt:
	// Build's bulk load fans out one goroutine per partition and joins
	// them before it returns.
	{
		name:    "core-owns-no-goroutine",
		check:   grep(files{globs: []string{"internal/core/*.go"}, except: []string{"internal/core/build.go"}}, `^[[:space:]]*go[[:space:]]|sync\.WaitGroup|close\(`),
		reason:  "internal/core must not start goroutines or close channels",
		violate: map[string]string{"internal/core/hybrid.go": "package core\n\nfunc (h *Hybrid) Start() {\n\tgo func() {}()\n}\n"},
	},
	// Actors are coroutines; the parking actor dispatches the next one,
	// resuming it directly or yielding down its chain of resumers to
	// Engine.Run (DESIGN §5.1). A channel, a go statement or a lock in
	// engine.go means a second execution model, or the scheduler, is back
	// on the dispatch path.
	{
		name:    "engine-one-dispatcher",
		check:   grep(files{globs: []string{"internal/sim/engine/engine.go"}}, `\bchan\b|^[[:space:]]*go[[:space:]]|"sync(/atomic)?"`),
		reason:  "internal/sim/engine/engine.go must not use channels, go statements or sync",
		violate: map[string]string{"internal/sim/engine/engine.go": "package engine\n\nimport \"sync\"\n\nvar mu sync.Mutex\n"},
	},
	// A run-ahead section (engine.Actor.BeginRunAhead) replays exactly only
	// if nothing it touches is read or written by another actor before it
	// ends (DESIGN §5.1). fc's PubList.serve says why that holds for an NMP
	// core serving a request; a section opened anywhere else has no such
	// argument beside it.
	{
		name:    "run-ahead-only-in-fc",
		check:   grep(files{globs: []string{"..."}, except: []string{"internal/dsim/fc/", "internal/sim/engine/engine.go"}}, `BeginRunAhead`),
		reason:  "run-ahead sections may be opened only in internal/dsim/fc",
		violate: map[string]string{"internal/dsim/offload/offload.go": "package offload\n\nfunc serve(a *engine.Actor) { a.BeginRunAhead() }\n"},
	},
	// A timed access is three calls only while these three inline (DESIGN
	// §5.1), and Ctx.Step, the compute charge between accesses, is one.
	// Advance once went over the inliner's budget of 80 and nothing noticed.
	{
		name: "simulator-accessors-inline",
		check: inlines([]string{"internal/sim/engine", "internal/sim/memsys", "internal/sim/machine"},
			"(*Actor).Advance", "(*RAM).Load32", "(*RAM).Store32", "(*Ctx).Step"),
		reason: "a simulator hot accessor no longer inlines",
		violate: map[string]string{"gcflags-m2.log": strings.Replace(cleanTree["gcflags-m2.log"],
			"can inline (*Actor).Advance with cost 70", "cannot inline (*Actor).Advance: function too complex: cost 94 exceeds budget 80", 1)},
	},
	// One caller at a time holds each partition store; atomics or unsafe
	// creeping into the arena store mean it is paying for sharing it lacks,
	// and a node pointer back in the nodes means the collector scans them
	// again.
	{
		name:    "cds-sequential/no-atomics",
		check:   grep(files{globs: []string{"internal/cds/*.go"}}, `atomic\.|sync/atomic|unsafe`),
		reason:  "internal/cds stores must not use sync/atomic or unsafe",
		violate: map[string]string{"internal/cds/btree.go": "package cds\n\nimport \"sync/atomic\"\n\nvar n atomic.Int64\n"},
	},
	{
		name:    "cds-sequential/no-node-pointers",
		check:   grep(files{globs: []string{"internal/cds/*.go"}}, `\*bNode|\*bsNode`),
		reason:  "internal/cds nodes must hold indices, not node pointers",
		violate: map[string]string{"internal/cds/btree.go": "package cds\n\ntype bNode struct{ kids [4]*bNode }\n"},
	},
	// Every engine's native side is cds.BTree (DESIGN §5.7); a second
	// native ordered map is a second path doing the same thing.
	{
		name:    "one-native-store",
		check:   grep(files{globs: []string{"internal/...", "cmd/..."}}, `BSkipList|bsInner|bsMaxLevels`),
		reason:  "the native B-skiplist is back: cds.BTree is the one native partition store",
		violate: map[string]string{"cmd/tool/main.go": "package main\n\ntype BSkipList struct{}\n"},
	},
	// Prior work's NMP-based skiplist is skiplist.Hybrid with every level
	// NMP-side (NMPLevels == Levels); a type of its own is a second copy of
	// the hybrid's NMP half.
	{
		name:    "nmp-based-is-hybrid",
		check:   grep(files{globs: []string{"internal/...", "cmd/..."}}, `NMPFC|NewNMPFC|NMPFCConfig`),
		reason:  "skiplist.NMPFC is back: build NMP-based as skiplist.NewHybrid with NMPLevels == Levels",
		violate: map[string]string{"internal/dsim/skiplist/nmpfc.go": "package skiplist\n\ntype NMPFC struct{}\n"},
	},
}

// run applies r to t: "" when the rule holds, else the reason and what
// breaks it.
func (r rule) run(t tree) string {
	bad, err := r.check(t)
	if err != nil {
		return fmt.Sprintf("%s: check failed: %v", r.name, err)
	}
	if len(bad) == 0 {
		return ""
	}
	return r.reason + ":\n  " + strings.Join(bad, "\n  ")
}

// TestArchitectureRules checks every rule against the repository.
func TestArchitectureRules(t *testing.T) {
	repo := tree{FS: os.DirFS("../.."), inlining: compilerDiagnostics}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if msg := r.run(repo); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestArchitectureRulesFire shows each rule holds on cleanTree and fires,
// with its reason, on the tree its violate edit makes.
func TestArchitectureRulesFire(t *testing.T) {
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if msg := r.run(fixture(nil)); msg != "" {
				t.Fatalf("clean fixture: %s", msg)
			}
			if msg := r.run(fixture(r.violate)); !strings.HasPrefix(msg, r.reason+":") {
				t.Fatalf("seeded violation not reported with the reason: %q", msg)
			}
		})
	}
}

// cleanTree is a fixture every rule passes: one file in each set a rule
// reads, including what a rule exempts (build.go's goroutine, hot.go's
// table pointer, fc's run-ahead section, a test file's goroutine), and
// the four accessors in the compiler's diagnostics.
var cleanTree = map[string]string{
	"internal/core/hybrid.go":       "package core\n\nimport \"hybrids/internal/hds\"\n\nvar _ hds.Op\n",
	"internal/core/build.go":        "package core\n\nfunc build(done chan struct{}) {\n\tgo func() { close(done) }()\n}\n",
	"internal/core/hot.go":          "package core\n\ntype hotPointer = atomic.Pointer[hotTable]\n",
	"internal/core/batch.go":        "package core\n\nfunc (b *Batcher) take(p *partition) { p.lock() }\n",
	"internal/core/hybrid_test.go":  "package core\n\nfunc stress() {\n\tgo func() {}()\n}\n",
	"internal/hds/hds.go":           "package hds\n\ntype Op struct{}\n",
	"internal/dsim/kv/kv.go":        "package kv\n\nimport \"hybrids/internal/hds\"\n\ntype Op struct{ Kind hds.Kind }\n",
	"internal/ycsb/ycsb.go":         "package ycsb\n\nimport \"hybrids/internal/dsim/kv\"\n\nvar _ kv.Op\n",
	"internal/server/stats.go":      "package server\n\nvar names = []string{\"server/requests\", \"server/batch\"}\n",
	"internal/server/server.go":     "package server\n",
	"internal/sim/memsys/memsys.go": "package memsys\n\ntype RAM struct{ Stats uint64 }\n",
	"internal/exp/scale.go":         "package exp\n\ntype Scale struct {\n\tSimParams\n\tAttr bool\n}\n",
	"internal/exp/runner.go":        "package exp\n\nimport _ \"hybrids/internal/dsim/fc\"\n",
	"cmd/hybrids/main.go":           "package main\n\nimport _ \"hybrids/internal/exp\"\n",
	"internal/store/store.go":       "package store\n\nimport _ \"hybrids/internal/core\"\n",
	"internal/sim/engine/engine.go": "package engine\n\nfunc (a *Actor) BeginRunAhead() {}\n",
	"internal/dsim/fc/fc.go":        "package fc\n\nfunc serve(a *engine.Actor) { a.BeginRunAhead() }\n",
	"internal/cds/arena.go":         "package cds\n\ntype arena struct{ nodes []bNode }\n",
	"internal/cds/btree.go":         "package cds\n\ntype bNode struct{ kids [4]int32 }\n",
	"cmd/tool/main.go":              "package main\n",
	"cmd/hybridsd/main.go":          "package main\n\nimport _ \"hybrids/internal/admin\"\n",
	"cmd/hybridsload/main.go":       "package main\n\nimport _ \"hybrids/internal/ycsb\"\n",
	"internal/admin/admin.go":       "package admin\n\nimport _ \"hybrids/internal/server\"\n",
	"gcflags-m2.log": "internal/sim/engine/engine.go:10:6: can inline (*Actor).Advance with cost 70 as: method(a *Actor) func(n uint64) { }\n" +
		"internal/sim/memsys/ram.go:20:6: can inline (*RAM).Load32 with cost 33 as: method(r *RAM) func(a uint64) uint32 { }\n" +
		"internal/sim/memsys/ram.go:30:6: can inline (*RAM).Store32 with cost 66 as: method(r *RAM) func(a uint64, v uint32) { }\n" +
		"internal/sim/machine/ctx.go:40:6: can inline (*Ctx).Step with cost 74 as: method(c *Ctx) func(n uint64) { }\n",
}

// fixture is cleanTree with edit's files written over it; its compiler
// diagnostics are the file gcflags-m2.log.
func fixture(edit map[string]string) tree {
	m := fstest.MapFS{}
	for _, files := range []map[string]string{cleanTree, edit} {
		for p, src := range files {
			m[p] = &fstest.MapFile{Data: []byte(src)}
		}
	}
	return tree{FS: m, inlining: func([]string) (string, error) {
		log, err := fs.ReadFile(m, "gcflags-m2.log")
		return string(log), err
	}}
}

// compilerDiagnostics builds pkgs in the repository with -gcflags=-m=2
// and returns what the compiler printed.
func compilerDiagnostics(pkgs []string) (string, error) {
	args := []string{"build", "-gcflags=-m=2"}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// files is a file set: fs.Glob patterns, where "dir/..." stands for every
// .go file below dir and "..." for every .go file in the tree. A _test.go
// file is left out unless tests is set, and so is any path that starts
// with an entry of except. A set that matches no file is an error, so a
// rename cannot empty a rule.
type files struct {
	globs  []string
	except []string
	tests  bool
}

func (s files) list(fsys fs.FS) ([]string, error) {
	var out []string
	keep := func(p string) {
		if !s.tests && strings.HasSuffix(p, "_test.go") {
			return
		}
		for _, e := range s.except {
			if strings.HasPrefix(p, e) {
				return
			}
		}
		out = append(out, p)
	}
	for _, g := range s.globs {
		if dir, ok := strings.CutSuffix(g, "..."); ok {
			dir = strings.TrimSuffix(dir, "/")
			if dir == "" {
				dir = "."
			}
			err := fs.WalkDir(fsys, dir, func(p string, d fs.DirEntry, err error) error {
				switch {
				case err != nil:
					return err
				case d.IsDir() && p != dir && strings.HasPrefix(d.Name(), "."):
					return fs.SkipDir
				case !d.IsDir() && strings.HasSuffix(p, ".go"):
					keep(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		matches, err := fs.Glob(fsys, g)
		if err != nil {
			return nil, err
		}
		for _, p := range matches {
			keep(p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no file matches %v", s.globs)
	}
	return out, nil
}

// eachLine calls f with every line of every file in set.
func eachLine(fsys fs.FS, set files, f func(path string, n int, line string)) error {
	paths, err := set.list(fsys)
	if err != nil {
		return err
	}
	for _, p := range paths {
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			f(p, i+1, line)
		}
	}
	return nil
}

// grep reports every line of set that pattern matches, as grep -nE does.
func grep(set files, pattern string) func(tree) ([]string, error) {
	re := regexp.MustCompile(pattern)
	return func(t tree) ([]string, error) {
		var hits []string
		err := eachLine(t, set, func(path string, n int, line string) {
			if re.MatchString(line) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, line))
			}
		})
		return hits, err
	}
}

// once reports every text pattern matches more than once across set.
func once(set files, pattern string) func(tree) ([]string, error) {
	re := regexp.MustCompile(pattern)
	return func(t tree) ([]string, error) {
		count := map[string]int{}
		err := eachLine(t, set, func(_ string, _ int, line string) {
			for _, m := range re.FindAllString(line, -1) {
				count[m]++
			}
		})
		var dups []string
		for m, n := range count {
			if n > 1 {
				dups = append(dups, fmt.Sprintf("%s (%d times)", m, n))
			}
		}
		sort.Strings(dups)
		return dups, err
	}
}

// noField reports every field named field of a struct type typ declared
// in set.
func noField(set files, typ, field string) func(tree) ([]string, error) {
	return func(t tree) ([]string, error) {
		paths, err := set.list(t)
		if err != nil {
			return nil, err
		}
		var bad []string
		for _, p := range paths {
			src, err := fs.ReadFile(t, p)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == typ {
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							if name.Name == field {
								bad = append(bad, fmt.Sprintf("%s: %s.%s", p, typ, field))
							}
						}
					}
				}
				return false
			})
		}
		return bad, nil
	}
}

// absent reports path if it exists.
func absent(path string) func(tree) ([]string, error) {
	return func(t tree) ([]string, error) {
		_, err := fs.Stat(t, path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return []string{path + " exists"}, err
	}
}

// importsNone reports every package pkgs depend on, as go list -deps lists
// them, whose import path forbid matches. A pkgs entry "dir/..." stands for
// every package below dir. It follows the module's own imports through the
// non-test files (no build constraint guards one) and does not descend
// into a forbidden package.
func importsNone(pkgs []string, forbid string) func(tree) ([]string, error) {
	re := regexp.MustCompile(forbid)
	return func(t tree) ([]string, error) {
		var dirs []string
		for _, p := range pkgs {
			if !strings.HasSuffix(p, "/...") {
				dirs = append(dirs, p)
				continue
			}
			paths, err := files{globs: []string{p}}.list(t)
			if err != nil {
				return nil, err
			}
			for _, f := range paths {
				if d := f[:strings.LastIndex(f, "/")]; !slices.Contains(dirs, d) {
					dirs = append(dirs, d)
				}
			}
		}
		var bad []string
		seen := map[string]bool{}
		var walk func(dir string) error
		walk = func(dir string) error {
			paths, err := files{globs: []string{dir + "/*.go"}}.list(t)
			if err != nil {
				return err
			}
			for _, p := range paths {
				src, err := fs.ReadFile(t, p)
				if err != nil {
					return err
				}
				f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.ImportsOnly)
				if err != nil {
					return err
				}
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if seen[path] {
						continue
					}
					seen[path] = true
					if re.MatchString(path) {
						bad = append(bad, path+" (imported by "+p+")")
						continue
					}
					if dir, ok := strings.CutPrefix(path, "hybrids/"); ok {
						if err := walk(dir); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		for _, d := range dirs {
			if err := walk(d); err != nil {
				return nil, err
			}
		}
		return bad, nil
	}
}

// inlines reports each of funcs that the compiler's -m=2 diagnostics for
// pkgs do not say it can inline, with the lines it printed about it.
func inlines(pkgs []string, funcs ...string) func(tree) ([]string, error) {
	return func(t tree) ([]string, error) {
		log, err := t.inlining(pkgs)
		if err != nil {
			return nil, err
		}
		var bad []string
		for _, f := range funcs {
			if strings.Contains(log, "can inline "+f+" with cost ") {
				continue
			}
			msg := f + " no longer inlines"
			for _, line := range strings.Split(log, "\n") {
				if strings.Contains(line, "inline "+f) {
					msg += "\n    " + line
				}
			}
			bad = append(bad, msg)
		}
		return bad, nil
	}
}
