package model

import "time"

// BatchMarginal is the incremental cost of one extra batched item as a
// fraction of the single-item latency.
const BatchMarginal = 0.15

// BatchLatency is the wall time a batch of b items occupies a replica when
// a single item would take base:
//
//	T(b) = T(1) · (1 + (b−1)·BatchMarginal)
//
// i.e. a fixed cost (weight loads, kernel launch, pre/post-processing)
// paid once per batch plus a linear per-item term. Writing α =
// 1−BatchMarginal this is the familiar fixed-fraction form T(b) =
// T(1)·(α + (1−α)·b): the amortized per-item cost T(b)/b falls from T(1) at
// b=1 toward BatchMarginal·T(1) for large b, which is the throughput side
// of the latency/throughput trade-off a batching scheduler has to weigh.
func BatchLatency(base time.Duration, b int) time.Duration {
	if b <= 1 {
		return base
	}
	return time.Duration(float64(base) * (1 + float64(b-1)*BatchMarginal))
}

// BatchAmortized is the per-item capacity cost of running batches of b:
// BatchLatency(base, b)/b. Schedulers planning over a batching fleet use it
// as the effective execution time of one task.
func BatchAmortized(base time.Duration, b int) time.Duration {
	if b <= 1 {
		return base
	}
	return time.Duration(float64(base) * (1 + float64(b-1)*BatchMarginal) / float64(b))
}
