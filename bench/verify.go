package main

import "math"

// verify runs the output and accounting checks over every request of a
// run, warm-up included. A record that fails is flagged so it also counts
// against the on-time and accuracy shares.
//
// Output: every answered, non-cached result must equal
// Ensemble.Predict(Artifacts.Outs[id], returnedSubset) bit for bit (over
// HTTP that is after the JSON round trip); a cached answer must be a
// well-formed distribution. Accounting: exactly one result per request,
// and the harness's served/degraded/missed/rejected counts must equal the
// runtime's own, with sent = submitted = their sum.
func verify(d *deployment, recs []*record, overHTTP bool, rt counts) tally {
	t := tally{sent: len(recs)}
	var seen counts
	for i, r := range recs {
		if r == nil {
			t.fail("request %d: no record", i)
			continue
		}
		if n := r.results.Load(); n != 1 {
			r.bad = true
			t.fail("request %d: %d results, want exactly 1", i, n)
			continue
		}
		if msg := checkAnswer(d, r, overHTTP); msg != "" {
			r.bad = true
			t.fail("request %d (sample %d): %s", i, d.sampleID(r.sample), msg)
			continue
		}
		a := r.ans
		switch {
		case a.rejected:
			seen.rejected++
		case a.missed:
			seen.missed++
		case a.degraded:
			seen.degraded++
			t.answered++
		default:
			seen.served++
			t.answered++
		}
	}
	seen.submitted = uint64(len(recs))
	if t.failed == 0 && seen != rt {
		t.fail("accounting: harness saw %+v, runtime reports %+v", seen, rt)
	}
	if sum := rt.served + rt.degraded + rt.missed + rt.rejected; sum != rt.submitted {
		t.fail("accounting: runtime submitted=%d but outcomes sum to %d", rt.submitted, sum)
	}
	return t
}

// checkAnswer returns what is wrong with one result, or "".
func checkAnswer(d *deployment, r *record, overHTTP bool) string {
	a := r.ans
	if a.err != nil {
		return "transport: " + a.err.Error()
	}
	if overHTTP {
		switch {
		case a.status != 200 && a.status != 503:
			return "unexpected HTTP status"
		case (a.status == 503) != a.rejected:
			return "status 503 and the rejected flag disagree"
		}
	}
	if a.rejected && !a.missed {
		return "rejected without missed"
	}
	if a.missed {
		if len(a.probs) != 0 || a.degraded || a.cached {
			return "missed result carries an answer"
		}
		return ""
	}
	if a.cached {
		sum := 0.0
		for _, p := range a.probs {
			if !(p >= 0 && p <= 1) {
				return "cached answer is not a distribution"
			}
			sum += p
		}
		if len(a.probs) == 0 || math.Abs(sum-1) > 1e-9 {
			return "cached answer is not a distribution"
		}
		return ""
	}
	want := d.expected(r.sample, a.subset)
	if want == nil || len(want) != len(a.probs) {
		return "answer does not match its subset's shape"
	}
	for c := range want {
		if math.Float64bits(want[c]) != math.Float64bits(a.probs[c]) {
			return "answer differs from Ensemble.Predict over the returned subset"
		}
	}
	return ""
}
