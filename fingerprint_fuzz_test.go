package connquery

// Fuzzing the request fingerprint canonicalizer. The cache's safety rests
// on two properties of requestFingerprint:
//
//  1. Semantically equal requests collide: value-identical parameters in
//     fresh backing arrays, -0.0 vs +0.0 coordinates, and the symmetric
//     DistanceRequest endpoint order all map to one key, so equal requests
//     share one cache entry.
//  2. Anything that can select a different execution separates: a different
//     request kind, any parameter change, and the per-call worker options
//     must all produce distinct keys — two requests that may answer
//     differently must never serve each other's cached answers.
//
// The fuzzer derives a request of every kind from raw numeric input, builds
// a semantically equal twin and a family of perturbed variants, and checks
// both properties for arbitrary (including non-finite) float inputs.

import (
	"math"
	"testing"
)

// fuzzRequests derives one request of each kind from the raw inputs.
func fuzzRequests(kind uint8, x1, y1, x2, y2, s float64, k int16) Request {
	a, b := Pt(x1, y1), Pt(x2, y2)
	seg := Seg(a, b)
	kk := int(k)
	return []Request{
		CONNRequest{Seg: seg},
		COkNNRequest{Seg: seg, K: kk},
		ONNRequest{P: a, K: kk},
		CNNRequest{Seg: seg},
		RangeRequest{Center: a, Radius: s},
		VisibleKNNRequest{P: b, K: kk},
		DistanceRequest{A: a, B: b},
		TrajectoryRequest{Waypoints: []Point{a, b, Pt(s, y1)}},
		CONNBatchRequest{Segs: []Segment{seg, Seg(b, Pt(s, s))}},
		EDistanceJoinRequest{Queries: []Point{a, b}, E: s},
		DistanceSemiJoinRequest{Queries: []Point{b, a}},
		ClosestPairRequest{Queries: []Point{a}},
	}[int(kind)%12]
}

// equalTwin builds a semantically equal copy of req: identical values in
// fresh backing arrays, every zero coordinate's sign flipped, and the
// DistanceRequest endpoints swapped (obstructed distance is symmetric).
func equalTwin(req Request) Request {
	flip := func(v float64) float64 {
		if v == 0 {
			return -v // +0 <-> -0: same value, different bits
		}
		return v
	}
	fp := func(p Point) Point { return Pt(flip(p.X), flip(p.Y)) }
	fs := func(s Segment) Segment { return Seg(fp(s.A), fp(s.B)) }
	fps := func(ps []Point) []Point {
		out := make([]Point, len(ps))
		for i, p := range ps {
			out[i] = fp(p)
		}
		return out
	}
	switch r := req.(type) {
	case CONNRequest:
		return CONNRequest{Seg: fs(r.Seg)}
	case COkNNRequest:
		return COkNNRequest{Seg: fs(r.Seg), K: r.K}
	case ONNRequest:
		return ONNRequest{P: fp(r.P), K: r.K}
	case CNNRequest:
		return CNNRequest{Seg: fs(r.Seg)}
	case RangeRequest:
		return RangeRequest{Center: fp(r.Center), Radius: flip(r.Radius)}
	case VisibleKNNRequest:
		return VisibleKNNRequest{P: fp(r.P), K: r.K}
	case DistanceRequest:
		return DistanceRequest{A: fp(r.B), B: fp(r.A)} // symmetric
	case TrajectoryRequest:
		return TrajectoryRequest{Waypoints: fps(r.Waypoints)}
	case CONNBatchRequest:
		segs := make([]Segment, len(r.Segs))
		for i, s := range r.Segs {
			segs[i] = fs(s)
		}
		return CONNBatchRequest{Segs: segs}
	case EDistanceJoinRequest:
		return EDistanceJoinRequest{Queries: fps(r.Queries), E: flip(r.E)}
	case DistanceSemiJoinRequest:
		return DistanceSemiJoinRequest{Queries: fps(r.Queries)}
	case ClosestPairRequest:
		return ClosestPairRequest{Queries: fps(r.Queries)}
	}
	return req
}

func FuzzRequestFingerprint(f *testing.F) {
	// Seed corpus: every request kind, plus the canonicalizer's edge cases —
	// signed zeros, infinities, NaN, swapped distance endpoints.
	for kind := uint8(0); kind < 12; kind++ {
		f.Add(kind, 1.5, 2.5, 3.5, 4.5, 10.0, int16(3))
	}
	f.Add(uint8(6), 5.0, 6.0, 1.0, 2.0, 0.0, int16(1))                  // distance, endpoints out of order
	f.Add(uint8(0), math.Copysign(0, -1), 0.0, 1.0, 1.0, 2.0, int16(1)) // -0.0 vs +0.0
	f.Add(uint8(2), math.Inf(1), 0.0, 0.0, math.Inf(-1), 1.0, int16(2)) // infinities are canonical
	f.Add(uint8(1), math.NaN(), 0.0, 1.0, 1.0, 1.0, int16(2))           // NaN: not cacheable
	f.Add(uint8(1), 0.0, 0.0, 1.0, 1.0, 1.0, int16(-7))                 // negative k
	f.Add(uint8(11), 0.0, 0.0, 0.0, 0.0, 0.0, int16(0))                 // duplicate coordinates
	f.Add(uint8(4), 1.0, 1.0, 0.0, 0.0, math.Copysign(0, -1), int16(0)) // range, -0.0 radius

	f.Fuzz(func(t *testing.T, kind uint8, x1, y1, x2, y2, s float64, k int16) {
		req := fuzzRequests(kind, x1, y1, x2, y2, s, k)
		fp, ok := requestFingerprint(req, 0, false)
		hasNaN := math.IsNaN(x1) || math.IsNaN(y1) || math.IsNaN(x2) || math.IsNaN(y2) || math.IsNaN(s)
		if !ok {
			if !hasNaN {
				t.Fatalf("%s: not fingerprintable without NaN input", req.Kind())
			}
			return // NaN parameters are legitimately uncacheable
		}

		// Property 1: semantically equal requests collide.
		twin := equalTwin(req)
		tfp, tok := requestFingerprint(twin, 0, false)
		if !tok || tfp != fp {
			t.Fatalf("%s: semantically equal requests fingerprint differently\n req:  %#v\n twin: %#v", req.Kind(), req, twin)
		}

		// Property 2a: a different kind with the same raw inputs separates.
		other := fuzzRequests(kind+1, x1, y1, x2, y2, s, k)
		if ofp, ook := requestFingerprint(other, 0, false); ook && ofp == fp {
			t.Fatalf("%s and %s collide", req.Kind(), other.Kind())
		}

		// Property 2b: worker options separate — from the optionless request
		// and from each other.
		w2, _ := requestFingerprint(req, 2, true)
		w3, _ := requestFingerprint(req, 3, true)
		if w2 == fp || w3 == fp || w2 == w3 {
			t.Fatalf("%s: worker options do not separate (%q %q %q)", req.Kind(), fp, w2, w3)
		}

		// Determinism: recomputation is stable.
		if again, _ := requestFingerprint(req, 0, false); again != fp {
			t.Fatalf("%s: fingerprint not deterministic", req.Kind())
		}
	})
}
