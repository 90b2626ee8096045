package main

import (
	"encoding/json"
	"math"
	"sort"

	"connquery/server"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1), NaN for
// an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// normalize re-encodes an /v1/exec body with the fields that legitimately
// differ between two executions of one request — CPU time and page faults —
// zeroed, so that equal answers compare byte-equal.
func normalize(body []byte) ([]byte, error) {
	var r server.ExecResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return json.Marshal(scrub(&r))
}

func scrub(r *server.ExecResponse) *server.ExecResponse {
	clean := func(m *server.Metrics) { m.CPUNs, m.FaultsData, m.FaultsObst = 0, 0, 0 }
	clean(&r.Metrics)
	for i := range r.ItemMetrics {
		clean(&r.ItemMetrics[i])
	}
	return r
}
