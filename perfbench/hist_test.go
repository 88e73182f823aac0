package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchSortedReference checks the histogram's
// percentiles against the nearest-rank value of the sorted samples, for
// distributions shaped like the benchmark's latencies: tight, bimodal,
// and heavy-tailed.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"tight": func() int64 { return 300_000 + rng.Int63n(40_000) },
		"bimodal": func() int64 {
			if rng.Intn(10) < 7 {
				return 200 + rng.Int63n(100)
			}
			return 400_000 + rng.Int63n(100_000)
		},
		"lognorm":  func() int64 { return int64(math.Exp(12 + 1.5*rng.NormFloat64())) },
		"smallint": func() int64 { return rng.Int63n(20) },
	}
	for name, gen := range dists {
		var h hist
		vals := make([]int64, 20000)
		for i := range vals {
			vals[i] = gen()
			h.record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			want := float64(vals[idx])
			got := h.quantile(q)
			lo, hi := bucketRange(bucketOf(vals[idx]))
			if got < lo || got > hi {
				t.Errorf("%s q=%v: got %.1f, reference %.0f lies in bucket [%.0f, %.0f)", name, q, got, want, lo, hi)
			}
			if want >= subBuckets && math.Abs(got-want) > want/subBuckets {
				t.Errorf("%s q=%v: got %.1f, want %.0f within %.1f%%", name, q, got, want, 100.0/subBuckets)
			}
		}
	}
}

func TestHistBucketsTileTheLine(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histLen; i++ {
		lo, hi := bucketRange(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%v, %v), previous ended at %v", i, lo, hi, prevHi)
		}
		prevHi = hi
		if i < histLen-1 && bucketOf(int64(lo)) != i {
			t.Fatalf("bucketOf(%v) = %d, want %d", lo, bucketOf(int64(lo)), i)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for v := int64(1); v < 5000; v += 3 {
		if v%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from one recorded directly")
	}
}
