package core

import (
	"math/rand"

	"connquery/internal/geom"
)

// RandScene exposes randScene to the external core_test package: points
// outside obstacle interiors and a query segment crossing no obstacle
// interior.
func RandScene(r *rand.Rand, nPts, nObs int, domain float64) ([]geom.Point, []geom.Rect, geom.Segment) {
	sc := randScene(r, nPts, nObs, domain)
	return sc.points, sc.obstacles, sc.q
}

// RandQueryPoints exposes randQueryPoints: n points of [0,100)² outside
// every obstacle interior.
func RandQueryPoints(r *rand.Rand, obstacles []geom.Rect, n int) []geom.Point {
	return randQueryPoints(r, scene{obstacles: obstacles}, n)
}
