// Command connquery is a small CLI for running CONN-family queries over
// generated workloads, useful for exploring the system without writing code.
//
// Examples:
//
//	connquery -workload CL -scale 0.05 -query "1000,1000:1450,1000"
//	connquery -workload UL -ratio 2 -k 3 -query "500,500:950,500"
//	connquery -workload ZL -algo cnn -query "100,100:550,100"
//	connquery -workload CL -algo onn -k 5 -point "5000,5000"
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"connquery"
	"connquery/internal/bench"
	"connquery/internal/dataset"
	"connquery/internal/geom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("connquery: ")

	workload := flag.String("workload", "CL", "dataset combination: CL, UL or ZL")
	scale := flag.Float64("scale", 0.05, "dataset cardinality scale (1 = the paper's sizes)")
	ratio := flag.Float64("ratio", 1, "|P|/|O| ratio for UL/ZL")
	seed := flag.Int64("seed", 2009, "workload seed")
	algo := flag.String("algo", "conn", "algorithm: conn, coknn, cnn, onn")
	k := flag.Int("k", 5, "k for coknn/onn")
	queryFlag := flag.String("query", "", "query segment as x1,y1:x2,y2 (space is [0,10000]^2)")
	pointFlag := flag.String("point", "", "query point as x,y (for -algo onn)")
	timeout := flag.Duration("timeout", 0, "abort the query after this duration (0 = no deadline)")
	pointsCSV := flag.String("points-csv", "", "load data points from a CSV file (x,y rows) instead of generating them")
	obstaclesCSV := flag.String("obstacles-csv", "", "load obstacles from a CSV file (minx,miny,maxx,maxy rows)")
	flag.Parse()

	var w bench.Workload
	if *pointsCSV != "" || *obstaclesCSV != "" {
		if *pointsCSV == "" || *obstaclesCSV == "" {
			log.Fatal("-points-csv and -obstacles-csv must be given together")
		}
		pts, err := readPointsFile(*pointsCSV)
		if err != nil {
			log.Fatal(err)
		}
		obs, err := readRectsFile(*obstaclesCSV)
		if err != nil {
			log.Fatal(err)
		}
		w = bench.Workload{Name: "CSV", Points: dataset.FilterPoints(pts, obs), Obstacles: obs}
	} else {
		name := strings.ToUpper(*workload)
		if err := bench.CheckWorkload(name); err != nil {
			log.Fatal(err)
		}
		w = bench.BuildWorkload(name, *scale, *ratio, *seed)
	}
	fmt.Printf("workload %s: %d points, %d obstacles\n", w.Name, len(w.Points), len(w.Obstacles))

	db, err := connquery.Open(w.Points, w.Obstacles)
	if err != nil {
		log.Fatal(err)
	}

	// One execution path for every algorithm: build the Request, Exec it.
	// Ctrl-C (or -timeout) aborts mid-query via context cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var req connquery.Request
	switch strings.ToLower(*algo) {
	case "onn":
		p, err := parsePoint(*pointFlag)
		if err != nil {
			log.Fatalf("-point: %v", err)
		}
		req = connquery.ONNRequest{P: p, K: *k}
	case "conn", "cnn", "coknn":
		q, err := parseSegment(*queryFlag)
		if err != nil {
			log.Fatalf("-query: %v", err)
		}
		switch strings.ToLower(*algo) {
		case "conn":
			req = connquery.CONNRequest{Seg: q}
		case "cnn":
			req = connquery.CNNRequest{Seg: q}
		default:
			req = connquery.COkNNRequest{Seg: q, K: *k}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -algo %q\n", *algo)
		os.Exit(2)
	}

	ans, err := db.Exec(ctx, req)
	if err != nil {
		log.Fatalf("%s: %v", req.Kind(), err)
	}
	// Dispatch on the request, not the payload: an empty []Neighbor answer
	// is nil and must not fall through to the *Result branch.
	switch req.(type) {
	case connquery.ONNRequest:
		if len(ans.Neighbors()) == 0 {
			fmt.Println("no reachable data point")
		}
		for i, n := range ans.Neighbors() {
			fmt.Printf("%d. point %d at %v, obstructed distance %.2f\n", i+1, n.PID, n.P, n.Dist)
		}
	case connquery.COkNNRequest:
		res := ans.KResult()
		for _, tup := range res.Tuples {
			ids := make([]int32, len(tup.Owners))
			for i, o := range tup.Owners {
				ids[i] = o.PID
			}
			fmt.Printf("t [%.4f, %.4f]: points %v\n", tup.Span.Lo, tup.Span.Hi, ids)
		}
		fmt.Printf("%d tuples\n", len(res.Tuples))
	default:
		res := ans.Result()
		for _, tup := range res.Tuples {
			if tup.PID == connquery.NoOwner {
				fmt.Printf("t [%.4f, %.4f]: unreachable\n", tup.Span.Lo, tup.Span.Hi)
				continue
			}
			fmt.Printf("t [%.4f, %.4f]: point %d at %v\n", tup.Span.Lo, tup.Span.Hi, tup.PID, tup.P)
		}
		fmt.Printf("%d tuples, %d split points\n", len(res.Tuples), len(res.SplitPoints()))
	}
	fmt.Printf("metrics: %v\n", ans.Metrics())
}

func parsePoint(s string) (connquery.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return connquery.Point{}, fmt.Errorf("want x,y, got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return connquery.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return connquery.Point{}, err
	}
	return connquery.Pt(x, y), nil
}

func parseSegment(s string) (connquery.Segment, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return connquery.Segment{}, fmt.Errorf("want x1,y1:x2,y2, got %q", s)
	}
	a, err := parsePoint(parts[0])
	if err != nil {
		return connquery.Segment{}, err
	}
	b, err := parsePoint(parts[1])
	if err != nil {
		return connquery.Segment{}, err
	}
	return connquery.Seg(a, b), nil
}

func readPointsFile(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadPointsCSV(f)
}

func readRectsFile(path string) ([]geom.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadRectsCSV(f)
}
