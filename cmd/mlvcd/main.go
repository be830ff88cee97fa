// Command mlvcd serves point queries over one resident graph: a
// long-running daemon that opens a built device directory, attaches a
// shared page cache, and answers concurrent BFS/SSSP/random-walk queries
// over HTTP/JSON. Compatible point queries that wait for the same
// execution slot coalesce into one multi-source engine execution with
// per-query results bit-identical to individual runs; a query that finds a
// slot free runs at once.
//
// Usage:
//
//	mlvc build -graph graph.bin -dir /data/dev        # once
//	mlvcd -dir /data/dev -addr :8080 -cache-mb 64     # serve
//
//	curl -X POST :8080/query/bfs  -d '{"source":3,"targets":[7,100]}'
//	curl -X POST :8080/query/sssp -d '{"source":9,"deadline_ms":500}'
//	curl -X POST :8080/walk       -d '{"source":3,"walks":4,"length":8}'
//	curl :8080/graph  ·  curl :8080/stats  ·  curl :8080/metrics
//
// With -ingest the daemon also accepts durable streaming mutations
// (WAL-backed; acknowledged mutations survive kill -9) and ships its WAL
// to followers via GET /replicate:
//
//	mlvcd -dir /data/dev -addr :8080 -ingest
//	curl -X POST :8080/mutate -d '{"mutations":[{"op":"add","src":3,"dst":9}]}'
//
// With -follow the daemon is a warm-standby replica: it bootstraps from
// its own device directory (seed it from a copy of the primary's), tails
// the primary's WAL, serves read queries the whole time, and rejects
// /mutate with a structured read_only error until promoted:
//
//	mlvcd -dir /data/standby -addr :8081 -follow http://primary:8080
//	curl -X POST :8081/admin/promote        # manual failover
//	mlvcd ... -follow ... -promote-on-disconnect 10s   # automatic failover
//
// SIGINT/SIGTERM drains gracefully: in-flight batches finish, new
// queries are shed with a structured shutting_down error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/serve"
	"multilogvc/internal/ssd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mlvcd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mlvcd", flag.ExitOnError)
	dir := fs.String("dir", "", "device directory built with `mlvc build` (required)")
	name := fs.String("name", "g", "graph name inside the device")
	addr := fs.String("addr", ":8080", "listen address")
	pageSize := fs.Int("page", 16384, "SSD page size the device was built with")
	channels := fs.Int("channels", 8, "SSD channels")
	cacheMB := fs.Int("cache-mb", 64, "shared page-cache size in MiB; 0 serves uncached")
	mem := fs.Int64("mem", 64<<20, "per-execution engine memory budget (bytes)")
	steps := fs.Int("steps", 100, "max supersteps per query execution")
	maxBatch := fs.Int("max-batch", 16, "max queries that waited for one execution slot and share its run")
	maxConc := fs.Int("max-concurrent", 2, "max simultaneous engine executions")
	maxQueue := fs.Int("max-queue", 64, "max admitted-but-unfinished queries; beyond it queries are shed")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-query deadline")
	retries := fs.Int("retries", 0, "max retries per transient device fault; 0 = default (3), -1 disables")
	diskCap := fs.Int64("disk-cap", 0, "device byte quota; query scratch past it is shed with no_space (0 = unlimited)")
	brkWindow := fs.Int("breaker-window", 32, "fault circuit breaker: sliding window in query outcomes")
	brkThreshold := fs.Float64("breaker-threshold", 0.5, "fault circuit breaker: windowed fault rate that opens it")
	brkMin := fs.Int("breaker-min", 8, "fault circuit breaker: min outcomes before it may open")
	brkCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "fault circuit breaker: open duration before half-open probes")
	brkProbes := fs.Int("breaker-probes", 2, "fault circuit breaker: half-open probe concurrency (and successes to close)")
	ingest := fs.Bool("ingest", false, "enable durable streaming ingest: WAL-backed POST /mutate (also serves GET /replicate to followers)")
	follow := fs.String("follow", "", "run as a read-only follower tailing this primary URL (implies -ingest durability for the local WAL)")
	replicaPoll := fs.Duration("replica-poll", 50*time.Millisecond, "follower: idle poll interval against the primary")
	replicaBatch := fs.Int("replica-batch", 4096, "follower: max WAL frames per catch-up fetch")
	replicaLag := fs.Int64("replica-lag", 256, "follower: /readyz flips 503 when lag exceeds this many frames (-1: any lag is unready)")
	promoteOnDisc := fs.Duration("promote-on-disconnect", 0, "follower: auto-promote to writable after this long without primary contact (0 = manual /admin/promote only)")
	walFlush := fs.Duration("wal-flush", 2*time.Millisecond, "WAL group-commit window; 0 flushes synchronously per batch")
	maxPending := fs.Int("max-pending", 1<<20, "buffered delta side-entry cap; past it /mutate sheds with ingest_backpressure (0 = unbounded)")
	mergeThreshold := fs.Int("merge-threshold", 0, "buffered side-entries that trigger a crash-atomic delta merge (0 = library default)")
	fault := fs.String("fault", "",
		"TESTING ONLY: fault plan armed once the graph is open, e.g. transient=0.9,corrupt=0.01@.colidx,nospace=0.05,seed=7 (probabilities per page operation; @ restricts corruption to matching file names); any non-empty spec also exposes POST /debug/fault, which takes the same spec as its body (empty body heals)")
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required")
	}
	plan, err := ssd.ParseFaultPlan(*fault)
	if err != nil {
		return err
	}

	dev, err := ssd.Open(ssd.Config{
		PageSize: *pageSize, Channels: *channels, Dir: *dir,
		Capacity: *diskCap, Retry: ssd.RetryPolicy{MaxRetries: *retries},
	})
	if err != nil {
		return err
	}
	dev.AttachCache(pagecache.FromMB(*cacheMB, dev.PageSize()))
	follower := *follow != ""
	if follower {
		// A follower needs the full durable ingest plane: its own WAL (the
		// shipped frames are re-logged at their original seqs), replay,
		// and crash-atomic merges.
		*ingest = true
	}
	var g *csr.Graph
	if *ingest {
		g, err = csr.OpenIngest(dev, *name, csr.IngestOptions{
			WAL:            true,
			FlushEvery:     *walFlush,
			MaxPending:     *maxPending,
			MergeThreshold: *mergeThreshold,
		})
	} else {
		g, err = csr.Open(dev, *name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("mlvcd: opened %q: %d vertices, %d edges, %d intervals\n",
		*name, g.NumVertices(), g.NumEdges(), len(g.Intervals()))
	if *ingest {
		if st := g.IngestStats(); st.WAL.Replayed > 0 || st.WAL.TornTails > 0 {
			fmt.Printf("mlvcd: WAL replayed %d mutations (%d torn tails truncated)\n",
				st.WAL.Replayed, st.WAL.TornTails)
		}
	}

	// Fault injection arms AFTER the graph is opened (the open itself
	// must not trip) and only when explicitly enabled: this is the CI
	// fault smoke's control surface, never a production mode.
	if *fault != "" {
		dev.SetFaults(plan)
		fmt.Printf("mlvcd: fault injection armed: %s\n", *fault)
	}

	s, err := serve.New(serve.Options{
		Graph:             g,
		MaxBatch:          *maxBatch,
		MaxConcurrent:     *maxConc,
		MaxQueue:          *maxQueue,
		DefaultDeadline:   *deadline,
		MaxSupersteps:     *steps,
		MemoryBudget:      *mem,
		BreakerWindow:     *brkWindow,
		BreakerThreshold:  *brkThreshold,
		BreakerMinSamples: *brkMin,
		BreakerCooldown:   *brkCooldown,
		BreakerProbes:     *brkProbes,
		EnableIngest:      *ingest,
		ReadOnly:          follower,
		FaultControl:      *fault != "",
	})
	if err != nil {
		return err
	}

	var fol *serve.Follower
	if follower {
		fol, err = s.StartFollower(serve.FollowerOptions{
			Primary:             *follow,
			Poll:                *replicaPoll,
			BatchMax:            *replicaBatch,
			LagThreshold:        *replicaLag,
			PromoteOnDisconnect: *promoteOnDisc,
		})
		if err != nil {
			return err
		}
		fmt.Printf("mlvcd: following %s from seq %d (poll %s, lag threshold %d, promote-on-disconnect %s)\n",
			*follow, g.AppliedSeq(), *replicaPoll, *replicaLag, *promoteOnDisc)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("mlvcd: serving on http://%s (POST /query/bfs /query/sssp /walk; GET /graph /stats /metrics)\n",
		ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mlvcd: %v received; draining\n", sig)
	case err := <-errc:
		return err
	}

	// Drain: stop accepting connections, shed new queries, finish
	// in-flight batches, then exit cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if fol != nil {
		fol.Stop()
	}
	s.Close()
	// Flush the last WAL group-commit window; acked mutations are already
	// durable, this only hurries any batch still inside its window.
	if err := g.CloseIngest(); err != nil {
		fmt.Fprintf(os.Stderr, "mlvcd: WAL close: %v\n", err)
	}
	fmt.Println("mlvcd: drained; bye")
	return nil
}
