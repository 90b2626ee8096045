// Command connserve serves a connquery database over HTTP/JSON: the full
// typed-request surface on POST /v1/exec, live continuous queries as
// NDJSON/SSE streams on GET /v1/watch, MVCC mutations and snapshot pins,
// and a /v1/stats counters endpoint (see the server package for the wire
// contract and ARCHITECTURE.md for how the service sits on the engine).
//
// The dataset comes from one of three sources, checked in this order: a
// binary snapshot written by DB.Save (-load), a CSV pair (-points-csv +
// -obstacles-csv, the conngen format), or a generated paper workload
// (-workload/-scale/-ratio/-seed, the default).
//
// With -data-dir the database is durable: every mutation is written to a
// write-ahead log before it is acknowledged, checkpoints bound the log, and
// a restart — graceful or kill -9 — recovers the exact last acknowledged
// epoch. An empty directory is bootstrapped from the configured dataset
// source; a populated one is recovered and the dataset flags are ignored.
// -group-commit trades the per-mutation fsync for a windowed one (add
// -sync-ack to keep acknowledgments durable on top of the batched writes);
// -checkpoint-every tunes how often the log is folded into a checkpoint.
// Works with -shards: a sharded server writes the same files a single node
// writes, so a directory reopens under any -shards count, or without it.
//
//	connserve -addr :8080 -workload CL -scale 0.02
//	connserve -load city.snap -request-timeout 5s -snapshot-ttl 2m
//	connserve -data-dir /var/lib/connquery -workload CL -scale 0.02 -group-commit 2ms
//
// Then, for example:
//
//	curl -s localhost:8080/v1/exec -d '{"kind":"CONN","seg":{"a":{"x":100,"y":100},"b":{"x":9000,"y":100}}}'
//	curl -sN -G localhost:8080/v1/watch --data-urlencode 'request={"kind":"CONN","seg":{"a":{"x":100,"y":100},"b":{"x":9000,"y":100}}}'
//
// On SIGINT/SIGTERM the process shuts down gracefully: the listener stops
// accepting, watch streams are terminated, and in-flight execs drain
// (bounded by -shutdown-grace) before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"connquery"
	"connquery/internal/bench"
	"connquery/internal/dataset"
	"connquery/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("connserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "boot from a binary snapshot written by DB.Save")
	pointsCSV := flag.String("points-csv", "", "load data points from a CSV file (x,y rows)")
	obstaclesCSV := flag.String("obstacles-csv", "", "load obstacles from a CSV file (minx,miny,maxx,maxy rows)")
	workload := flag.String("workload", "CL", "generated dataset combination: CL, UL or ZL")
	scale := flag.Float64("scale", 0.02, "generated dataset cardinality scale (1 = the paper's sizes)")
	ratio := flag.Float64("ratio", 1, "|P|/|O| ratio for UL/ZL")
	seed := flag.Int64("seed", 2009, "workload seed")
	shards := flag.Int("shards", 1, "serve a spatially sharded database with this many shard units (1 = single-node; answers are bit-identical either way)")
	dataDir := flag.String("data-dir", "", "durable storage directory (WAL + checkpoints): recovers existing state on boot — the dataset flags are ignored then — or bootstraps the directory from the configured dataset source")
	groupCommit := flag.Duration("group-commit", 0, "with -data-dir: sync the WAL on this window instead of per mutation (0 = strict fsync before every commit)")
	syncAck := flag.Bool("sync-ack", false, "with -data-dir and -group-commit: fsync the WAL before acknowledging each commit — durable acks with the batched write path (no effect in strict mode, which always syncs)")
	ckptEvery := flag.Int("checkpoint-every", 0, "with -data-dir: checkpoint after this many logged records (0 = library default, negative = manual/shutdown only)")
	cacheBytes := flag.Int64("cache-bytes", connquery.DefaultAnswerCacheBytes,
		"answer cache budget in bytes (0 disables; hits/promotions surface in /v1/stats)")
	noPlanner := flag.Bool("no-planner", false, "disable the shared-subcomputation execution planner (planner counters surface in /v1/stats)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-exec execution cap (0 = none)")
	snapTTL := flag.Duration("snapshot-ttl", server.DefaultSnapshotTTL, "idle lifetime of server-held snapshot pins")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on shutdown")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); off when empty")
	flag.Parse()

	opts := []connquery.Option{connquery.WithAnswerCache(*cacheBytes)}
	if *noPlanner {
		opts = append(opts, connquery.WithNoPlanner())
	}

	db, source, err := openDB(*load, *pointsCSV, *obstaclesCSV, *workload, *scale, *ratio, *seed,
		*shards, *dataDir, *groupCommit, *syncAck, *ckptEvery, opts)
	if err != nil {
		log.Fatal(err)
	}
	if sdb, ok := db.(*connquery.ShardedDB); ok {
		st := sdb.ShardStats()
		log.Printf("loaded %s: %d points, %d obstacles (epoch %d), sharded %dx%d",
			source, db.NumPoints(), db.NumObstacles(), db.Version(), st.Cols, st.Rows)
	} else {
		log.Printf("loaded %s: %d points, %d obstacles (epoch %d)", source, db.NumPoints(), db.NumObstacles(), db.Version())
	}

	srv, err := server.New(server.Config{
		DB:             db,
		RequestTimeout: *reqTimeout,
		SnapshotTTL:    *snapTTL,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Printf("listening on http://%s", ln.Addr())

	// The profiling endpoints live on their own listener (http.DefaultServeMux,
	// which the blank net/http/pprof import populates) so the query API's
	// address never exposes them; the flag is off by default.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			log.Printf("pprof server: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("received %v, draining (grace %v)", sig, *grace)
	case err := <-serveErr:
		log.Fatal(err)
	}

	// Graceful shutdown: stop accepting, end the watch streams (srv.Close
	// closes their server-side gate and waits for in-flight execs), and let
	// Shutdown drain the remaining connections within the grace window.
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	<-done
	// With -data-dir this drains the WAL into a final checkpoint, so the next
	// boot recovers instantly with nothing to replay; without it Close is a
	// no-op.
	if c, ok := db.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
	log.Printf("bye")
}

// openDB resolves the configured dataset source and opens it single-node or
// sharded (shards > 1). For a binary snapshot the objects are extracted and
// re-partitioned, since the snapshot format is single-node. With dataDir
// set, the database is durable: an existing store is recovered (the dataset
// flags are then ignored — the directory IS the dataset), an empty one is
// bootstrapped from the resolved source.
func openDB(load, pointsCSV, obstaclesCSV, workload string, scale, ratio float64, seed int64,
	shards int, dataDir string, groupCommit time.Duration, syncAck bool, ckptEvery int, opts []connquery.Option) (connquery.Database, string, error) {
	if dataDir != "" {
		dopts := append([]connquery.Option(nil), opts...)
		if groupCommit > 0 {
			dopts = append(dopts, connquery.WithGroupCommit(groupCommit))
		}
		if syncAck {
			dopts = append(dopts, connquery.WithSyncAck())
		}
		if ckptEvery != 0 {
			dopts = append(dopts, connquery.WithCheckpointEvery(ckptEvery))
		}
		if !connquery.HasDurableState(dataDir) {
			pts, obs, source, err := resolveDataset(load, pointsCSV, obstaclesCSV, workload, scale, ratio, seed, nil)
			if err != nil {
				return nil, "", err
			}
			dopts = append(dopts, connquery.WithBootstrapData(pts, obs))
			db, err := openDurable(dataDir, shards, dopts)
			if err != nil {
				return nil, "", err
			}
			return db, fmt.Sprintf("%s, bootstrapped into %s", source, dataDir), nil
		}
		db, err := openDurable(dataDir, shards, dopts)
		if err != nil {
			return nil, "", err
		}
		rs := db.(interface {
			RecoveryStats() connquery.RecoveryStats
		}).RecoveryStats()
		return db, fmt.Sprintf("durable store %s (recovered epoch %d: %d checkpoint bytes, %d WAL records replayed)",
			dataDir, rs.Epoch, rs.CheckpointBytes, rs.WALRecords), nil
	}

	// In-memory: a snapshot keeps its single-node handle (cheapest), anything
	// else opens over the resolved object arrays.
	if load != "" && shards == 1 {
		db, err := connquery.LoadFile(load, opts...)
		if err != nil {
			return nil, "", err
		}
		return db, fmt.Sprintf("snapshot %s", load), nil
	}
	pts, obs, source, err := resolveDataset(load, pointsCSV, obstaclesCSV, workload, scale, ratio, seed, opts)
	if err != nil {
		return nil, "", err
	}
	if shards > 1 {
		db, err := connquery.OpenSharded(pts, obs, shards, opts...)
		return db, source, err
	}
	db, err := connquery.Open(pts, obs, opts...)
	return db, source, err
}

// openDurable dispatches to the durable constructor for the topology.
func openDurable(dir string, shards int, opts []connquery.Option) (connquery.Database, error) {
	if shards > 1 {
		return connquery.OpenDurableSharded(dir, shards, opts...)
	}
	return connquery.OpenDurable(dir, opts...)
}

// resolveDataset materializes the configured source as object arrays.
func resolveDataset(load, pointsCSV, obstaclesCSV, workload string, scale, ratio float64, seed int64,
	opts []connquery.Option) ([]connquery.Point, []connquery.Rect, string, error) {
	switch {
	case load != "":
		db, err := connquery.LoadFile(load, opts...)
		if err != nil {
			return nil, nil, "", err
		}
		return db.Points(), db.Obstacles(), fmt.Sprintf("snapshot %s", load), nil
	case pointsCSV != "" || obstaclesCSV != "":
		if pointsCSV == "" || obstaclesCSV == "" {
			return nil, nil, "", errors.New("-points-csv and -obstacles-csv must be given together")
		}
		pts, err := readCSV(pointsCSV, dataset.ReadPointsCSV)
		if err != nil {
			return nil, nil, "", err
		}
		obs, err := readCSV(obstaclesCSV, dataset.ReadRectsCSV)
		if err != nil {
			return nil, nil, "", err
		}
		return dataset.FilterPoints(pts, obs), obs, fmt.Sprintf("csv %s + %s", pointsCSV, obstaclesCSV), nil
	default:
		w := bench.BuildWorkload(strings.ToUpper(workload), scale, ratio, seed)
		return w.Points, w.Obstacles, fmt.Sprintf("workload %s scale %g", w.Name, scale), nil
	}
}

func readCSV[T any](path string, read func(r io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}
