package stats

// MergeHistogram folds src's buckets into dst. Bucket counts beyond
// dst's range clamp into dst's last bucket. A dst with no buckets (the
// zero value) adopts src's bucket count first, so merging into a
// zero-value histogram behaves like merging into an equal-sized one.
func MergeHistogram(dst, src *Histogram) {
	if len(src.buckets) == 0 {
		return
	}
	if len(dst.buckets) == 0 {
		dst.buckets = make([]uint64, len(src.buckets))
	}
	for v, n := range src.buckets {
		if n == 0 {
			continue
		}
		i := v
		if i >= len(dst.buckets) {
			i = len(dst.buckets) - 1
		}
		dst.buckets[i] += n
		dst.total += n
	}
}

// MergeLatency folds src's samples into dst. Trackers grow their
// bucket arrays on demand, so a dst physically shorter than src grows
// to src's length rather than clamping — every sample keeps its exact
// bucket and percentile results match a tracker that saw all samples
// directly.
func MergeLatency(dst, src *LatencyTracker) {
	if len(src.buckets) > len(dst.buckets) {
		dst.grow(len(src.buckets) - 1)
	}
	for i, n := range src.buckets {
		if n == 0 {
			continue
		}
		dst.buckets[i] += n
	}
	dst.total += src.total
	dst.sumNS += src.sumNS
	if src.maxNS > dst.maxNS {
		dst.maxNS = src.maxNS
	}
}
