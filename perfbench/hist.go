package main

import "math/bits"

// Latency histograms for the measured phase. A hist is a fixed array of
// log-linear buckets: values below 2^subBits nanoseconds are exact, and
// every further power-of-two octave is split into 2^subBits equal
// sub-buckets, so a bucket's width is at most 1/2^subBits (about 3%) of its
// lower bound. Recording is an index computation and an increment: no
// allocation, no lock. Percentiles interpolate linearly inside the bucket
// that holds the requested rank, so they move smoothly with the data
// instead of snapping to bucket edges.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	maxOctave  = 40 // 2^40 ns is about 18 minutes
	histLen    = (maxOctave - subBits + 1) * subBuckets
)

type hist struct {
	n      int64
	counts [histLen]int64
}

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e >= maxOctave {
		return histLen - 1
	}
	sub := int(uint64(v)>>(e-subBits)) & (subBuckets - 1)
	return (e-subBits+1)*subBuckets + sub
}

// bucketRange returns bucket i's value range [lo, hi).
func bucketRange(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	e := i/subBuckets + subBits - 1
	sub := i % subBuckets
	width := float64(uint64(1) << (e - subBits))
	lo = float64(uint64(1)<<e) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
}

// quantile estimates the q-quantile with the nearest-rank convention of a
// sorted slice s: s[ceil(q*n)-1]. Inside the bucket holding that rank the
// value is interpolated as if the bucket's samples were spread evenly.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n)+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 || cum+c <= rank {
			cum += c
			continue
		}
		lo, hi := bucketRange(i)
		return lo + (hi-lo)*(float64(rank-cum)+0.5)/float64(c)
	}
	return 0
}
