package trace

import "testing"

func sum(s [NumBuckets]uint64) uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

func TestFlushAttributesEveryElapsedCycle(t *testing.T) {
	var a CoreAttr
	a.Add(BucketHostCache, 10)
	a.Add(BucketDRAM, 25)
	sample, total := a.Flush(100)
	if total != 100 {
		t.Fatalf("total = %d, want 100 (elapsed from mark 0)", total)
	}
	if sample[BucketHostCache] != 10 || sample[BucketDRAM] != 25 {
		t.Fatalf("sample = %v, charged buckets lost", sample)
	}
	if sample[BucketHostCompute] != 65 {
		t.Fatalf("residual = %d, want 65 in host_compute", sample[BucketHostCompute])
	}
	if sum(sample) != total {
		t.Fatalf("buckets sum to %d, want total %d", sum(sample), total)
	}
	if a.mark != 100 {
		t.Fatalf("mark = %d, want 100 after flush", a.mark)
	}

	// Next interval starts empty at the new mark: an uninstrumented stretch
	// flushes entirely as host compute.
	sample, total = a.Flush(150)
	if total != 50 || sample[BucketHostCompute] != 50 || sum(sample) != 50 {
		t.Fatalf("second interval sample=%v total=%d, want pure 50-cycle residual", sample, total)
	}
}

func TestMoveClampsToSourceBucket(t *testing.T) {
	var a CoreAttr
	a.Add(BucketOffloadWait, 10)
	a.Move(BucketOffloadWait, BucketNMPSerial, 25) // more than charged
	sample, _ := a.Flush(10)
	if sample[BucketOffloadWait] != 0 || sample[BucketNMPSerial] != 10 {
		t.Fatalf("sample = %v, want all 10 cycles moved and none underflowed", sample)
	}
}

func TestFlushClampsOverAttribution(t *testing.T) {
	var a CoreAttr
	a.Add(BucketDRAM, 50)
	sample, total := a.Flush(30) // attributed exceeds elapsed
	if total != 50 {
		t.Fatalf("total = %d, want clamped to attributed 50", total)
	}
	if sample[BucketHostCompute] != 0 {
		t.Fatalf("residual = %d, want 0 when over-attributed", sample[BucketHostCompute])
	}
	if sum(sample) != total {
		t.Fatalf("buckets sum to %d, want %d", sum(sample), total)
	}
}

func TestNilCoreAttrIsSafe(t *testing.T) {
	var a *CoreAttr
	a.Add(BucketDRAM, 5)                     // must not panic
	a.Move(BucketDRAM, BucketHostCompute, 5) // must not panic
}

func TestBucketMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for b := Bucket(0); b < NumBuckets; b++ {
		name := b.MetricName()
		if seen[name] {
			t.Fatalf("duplicate metric name %q", name)
		}
		seen[name] = true
		if name == "attr/unknown" {
			t.Fatalf("bucket %d has no name", b)
		}
	}
	if seen[AttrTotalMetric] {
		t.Fatalf("AttrTotalMetric %q collides with a bucket metric", AttrTotalMetric)
	}
}
