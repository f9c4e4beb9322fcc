// Package hds is the request/plan vocabulary shared by both HybriDS
// stacks: the cycle-level simulator (internal/dsim) and the native Go
// runtime (internal/core). It defines the operation kinds, the 64-bit
// Request/Result wire pair the native runtime speaks, the Adapter
// contract a hybrid structure implements against an offload runtime, and
// the in-flight Window that realizes non-blocking NMP calls (§3.5 of the
// paper). Everything here is deliberately free of simulator and runtime
// dependencies — the simulator instantiates the generics with its
// virtual-time context and MMIO publication lists, while the native
// runtime speaks the vocabulary over its own lock-free publication lists
// — so the two stacks cannot drift apart on protocol semantics.
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

// PrepareCtl is an Adapter.Prepare directive.
type PrepareCtl uint8

const (
	// PrepareOffload posts the returned request to the returned partition.
	PrepareOffload PrepareCtl = iota
	// PrepareLocal reports the operation completed host-side without an
	// NMP call (e.g. a remove that lost its host-side race); the ok result
	// is the operation's outcome.
	PrepareLocal
	// PrepareRestart asks the runtime to call Prepare again with the next
	// attempt number (a failed optimistic host traversal).
	PrepareRestart
)

// VerdictKind classifies an Adapter.Finish outcome.
type VerdictKind uint8

const (
	// OpDone: the operation completed with Verdict.Value/OK.
	OpDone VerdictKind = iota
	// OpRetry: restart the whole operation from Prepare (the adapter has
	// already done any cleanup, e.g. unlinking a stale shortcut).
	OpRetry
	// OpFollowUp: post Verdict.Next on the same publication slot — a
	// multi-phase exchange like the B+ tree's LOCK_PATH / RESUME_INSERT
	// conversation, which the combiner keys by slot.
	OpFollowUp
)

// Gate adjusts an offload runtime's deferral gate. While the gate is held
// (acquires exceed releases), the non-blocking loop stops issuing new
// traversals: a host descend could otherwise spin on the calling thread's
// own host-side locks, deadlocking the single actor.
type Gate uint8

// Gate adjustments a Verdict can request.
const (
	GateNone    Gate = iota // leave the gate unchanged
	GateAcquire             // hold the gate: defer new traversals
	GateRelease             // release one hold
)

// Verdict is Adapter.Finish's decision for one response. Req is the
// stack's request wire type (fc.Request in the simulator).
type Verdict[Req any] struct {
	// Kind classifies the outcome.
	Kind VerdictKind
	// OK is the operation's success flag when Kind is OpDone.
	OK bool
	// Value is the operation's result value when Kind is OpDone.
	Value uint64
	// Next is the follow-up request when Kind is OpFollowUp.
	Next Req
	// Gate adjusts the deferral gate (B+ tree path locks).
	Gate Gate
}

// Adapter supplies the structure-specific hooks of the offload protocol.
// Ctx is the stack's execution context (the simulator's virtual-time
// *machine.Ctx), Op the operation type the driver issues, Req/Resp the
// wire pair carried through publication slots, and S one operation's
// host-side state (pre-allocated nodes, the locked path, protocol phase)
// carried across the runtime's retry loop.
type Adapter[Ctx, Op, Req, Resp, S any] interface {
	// Begin performs once-per-operation host pre-work (e.g. drawing an
	// insert height and pre-allocating the host node) and returns the
	// operation's initial state.
	Begin(c Ctx, op Op) S
	// Prepare performs the host-side traversal for one attempt: it routes
	// op to a partition and encodes the request, charging any host-side
	// work (including per-attempt backoff) on c. attempt counts Prepare
	// calls for this operation since the last successful Finish; batch
	// reports whether the caller is the non-blocking path.
	Prepare(c Ctx, op Op, st *S, attempt int, batch bool) (req Req, part int, ctl PrepareCtl, ok bool)
	// Finish interprets a response, performing host-side post-work (e.g.
	// linking host levels, locking the path), and decides what happens
	// next.
	Finish(c Ctx, op Op, st *S, resp Resp) Verdict[Req]
}
