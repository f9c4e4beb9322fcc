// Package hds is the request vocabulary shared by both HybriDS stacks: the
// cycle-level simulator (internal/dsim) and the native Go runtime
// (internal/core). It defines the operation kinds and the 64-bit
// Request/Result pair the native runtime speaks; the simulator narrows
// them to its 32-bit wire format in internal/dsim/kv. The stacks share
// this contract and their results, not machinery: the offload protocol
// (adapters, verdicts, the in-flight window of §3.5) is the simulator's
// own and lives in internal/dsim/offload.
package hds

// Kind is a data structure operation type.
type Kind uint8

// Operation kinds. They match the paper's workload mixes: YCSB-C is all
// Read; the sensitivity workloads mix Read, Insert and Remove; Update
// exercises the hybrid structures' value-propagation path. Scan is the
// serving layer's range read (YCSB-E's building block): Request.Key is
// the inclusive start and Request.Value bounds the number of pairs
// visited. The simulated structures do not implement Scan; the native
// runtime serves it per partition.
const (
	Read Kind = iota
	Update
	Insert
	Remove
	Scan
)

// String returns the lowercase workload-mix name of the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Remove:
		return "remove"
	case Scan:
		return "scan"
	default:
		return "unknown"
	}
}

// Request is one key-value operation in the shared vocabulary. The native
// runtime executes Requests directly; the simulator narrows them to its
// 32-bit wire format (kv.Op) at the experiment boundary.
type Request struct {
	// Kind selects the operation.
	Kind Kind
	// Key is the operation's key. Key 0 is reserved as the -inf sentinel
	// by every HybriDS structure and must not be used.
	Key uint64
	// Value is the payload for Update and Insert.
	Value uint64
}

// Result is the outcome of one Request: the value read (for Read) and
// the operation's success flag.
type Result struct {
	// Value is the value read (Read), or the number of pairs visited
	// (Scan); zero for other kinds.
	Value uint64
	// OK reports whether the operation succeeded (key found for
	// Read/Update/Remove, key absent for Insert, always true for Scan).
	OK bool
}
