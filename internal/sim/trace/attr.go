package trace

// Bucket classifies where a measured operation's cycles went. The
// attribution layer accumulates charged latencies into buckets between
// operation completions; at each completion the interval's buckets flush
// as one per-operation sample whose parts sum exactly to the interval's
// elapsed virtual cycles (the unattributed remainder lands in
// BucketHostCompute).
type Bucket uint8

// Attribution buckets, in report order.
const (
	// BucketHostCache: host cycles served on chip — L1/L2 hit latencies,
	// atomic RMW extras and TLB-walk overhead.
	BucketHostCache Bucket = iota
	// BucketCoherence: stalls invalidating remote L1 copies on stores.
	BucketCoherence
	// BucketDRAM: host LLC-miss fetches — off-chip link plus vault bank
	// service.
	BucketDRAM
	// BucketOffloadWait: the NMP offload round trip as seen by the host —
	// MMIO posts, completion polls, and time parked waiting for a
	// response — minus the serialization share below.
	BucketOffloadWait
	// BucketNMPSerial: the share of the offload wait the request spent
	// queued in the publication list before the combiner picked it up
	// (flat-combining serialization at the NMP core).
	BucketNMPSerial
	// BucketHostCompute: the interval's residual — simple-instruction
	// compute charges and any cycles not captured above.
	BucketHostCompute

	// NumBuckets is the bucket count.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	BucketHostCache:   "host_cache",
	BucketCoherence:   "coherence",
	BucketDRAM:        "dram",
	BucketOffloadWait: "offload_wait",
	BucketNMPSerial:   "nmp_serial",
	BucketHostCompute: "host_compute",
}

// String returns the bucket's short name.
func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return "unknown"
}

// MetricName returns the registry histogram name per-operation samples of
// this bucket are observed under ("attr/<name>").
func (b Bucket) MetricName() string { return "attr/" + b.String() }

// AttrTotalMetric is the registry histogram observing each operation's
// total interval cycles (the sum of all its bucket samples).
const AttrTotalMetric = "attr/op_total"

// CoreAttr accumulates one host core's bucket cycles for the operation
// interval in progress. Like the Tracer, the nil *CoreAttr is the disabled
// accumulator: Add and Move are nil-safe, so instrumented code needs only
// the receiver check. Attribution is pure Go-side bookkeeping and never
// advances virtual time.
type CoreAttr struct {
	buckets [NumBuckets]uint64
	mark    uint64 // virtual time of the last Flush
}

// Add charges n cycles to bucket b for the current interval.
func (a *CoreAttr) Add(b Bucket, n uint64) {
	if a == nil {
		return
	}
	a.buckets[b] += n
}

// Move reclassifies up to n cycles already charged to from into to (used
// to carve the flat-combining serialization share out of the offload
// wait). Moves are clamped to what from holds, so buckets never underflow.
func (a *CoreAttr) Move(from, to Bucket, n uint64) {
	if a == nil {
		return
	}
	if n > a.buckets[from] {
		n = a.buckets[from]
	}
	a.buckets[from] -= n
	a.buckets[to] += n
}

// Flush closes the interval at virtual time now: the residual between the
// interval's elapsed cycles and the attributed cycles lands in
// BucketHostCompute, the per-operation sample and its total are returned,
// and the accumulator resets with its mark at now. If attributed cycles
// exceed the interval (impossible under correct instrumentation, clamped
// defensively), the residual is zero.
func (a *CoreAttr) Flush(now uint64) (sample [NumBuckets]uint64, total uint64) {
	total = now - a.mark
	var attributed uint64
	for _, v := range a.buckets {
		attributed += v
	}
	sample = a.buckets
	if attributed <= total {
		sample[BucketHostCompute] += total - attributed
	} else {
		total = attributed
	}
	a.buckets = [NumBuckets]uint64{}
	a.mark = now
	return sample, total
}
