// Command mlvc generates graphs and runs vertex-centric applications on
// the MultiLogVC framework and its baselines.
//
// Usage:
//
//	mlvc gen   -kind rmat -scale 14 -ef 12 -seed 42 -out graph.bin
//	mlvc info  -graph graph.bin
//	mlvc build -graph graph.bin -dir /data/dev
//	mlvc run   -graph graph.bin -app pagerank -engine multilogvc -steps 15
//	mlvc run   -dir /data/dev -name g -app sssp -weighted
//
// Engines: multilogvc (default), graphchi, grafboost, grafboost-adapted.
// Apps: bfs, pagerank, cdlp, coloring, mis, randomwalk, sssp, wcc, kcore.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	multilogvc "multilogvc"
	"multilogvc/internal/failure"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "scrub":
		err = cmdScrub(os.Args[2:])
	case "wal":
		err = cmdWAL(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mlvc: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlvc:", err)
		f := failure.Of(err)
		if hint := hints[f]; hint != "" {
			fmt.Fprintln(os.Stderr, "mlvc:", hint)
		}
		os.Exit(f.Exit)
	}
}

// hints are the one-line diagnoses mlvc prints after a classified
// failure, keyed by its failure.Family, whose Exit is the process's exit
// code; usage lists them by exit code.
var hints = map[*failure.Family]string{
	failure.DeviceFault:       "transient retries exhausted; raise -retries or rerun",
	failure.Crash:             "injected device crash; rerun with -resume (MultiLogVC engine) from the newest checkpoint",
	failure.CorruptCheckpoint: "checkpoint corrupt beyond recovery; rerun without -resume to recompute",
	failure.Corrupt:           "corrupt data beyond recovery; rebuild the device or rerun with -checkpoint-every armed",
	failure.ShuttingDown:      "interrupted; on the MultiLogVC engine a checkpoint was committed, so rerun with -resume to continue",
	failure.NoSpace:           "device out of space after reclamation; raise -disk-cap or shrink the run",
	failure.Deadline:          "run deadline exceeded; rerun with -resume (MultiLogVC engine) or a larger -timeout",
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mlvc gen   -kind rmat|uniform|grid -scale N -ef N -seed N -out FILE
  mlvc info  -graph FILE
  mlvc build -graph FILE -dir DIR [-name G] [-mem BYTES] [-weighted]
  mlvc run   -graph FILE -app NAME -engine NAME [-steps N] [-mem BYTES]
             [-source V] [-weighted] [-async] [-k N]
             [-no-edgelog] [-per-superstep]
             [-checkpoint-every K] [-resume] [-retries N]
             [-timeout D] [-disk-cap BYTES] [-sort-budget BYTES]
             [-trace out.json] [-json report.json] [-listen :6060]
  mlvc run   -dir DIR -name G -app NAME ...   (reuse a built graph)
  mlvc scrub -dir DIR [-page N] [-channels N]   (verify every page checksum)
  mlvc wal dump -dir DIR [-name G] [-from SEQ] [-limit N]   (inspect the ingest WAL, read-only)

exit codes: 1 generic error, 2 usage, and one per failure family:`)
	fams := slices.DeleteFunc(slices.Clone(failure.Table), func(f *failure.Family) bool { return f.Exit == 1 })
	slices.SortFunc(fams, func(a, b *failure.Family) int { return a.Exit - b.Exit })
	for _, f := range fams {
		fmt.Fprintf(os.Stderr, "  %d %s: %s\n", f.Exit, f.Code, hints[f])
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "rmat", "generator: rmat, uniform, grid")
	scale := fs.Int("scale", 14, "rmat: log2 of vertex count")
	ef := fs.Int("ef", 12, "rmat: edges per vertex")
	n := fs.Int("n", 10000, "uniform: vertex count")
	m := fs.Int("m", 100000, "uniform: edge count")
	rows := fs.Int("rows", 100, "grid rows")
	cols := fs.Int("cols", 100, "grid cols")
	seed := fs.Int64("seed", 42, "random seed")
	out := fs.String("out", "graph.bin", "output edge list (.bin = binary)")
	fs.Parse(args)

	var edges []multilogvc.Edge
	var err error
	switch *kind {
	case "rmat":
		edges, err = multilogvc.RMAT(*scale, *ef, *seed)
	case "uniform":
		edges, err = multilogvc.Uniform(uint32(*n), *m, *seed)
	case "grid":
		edges, err = multilogvc.Grid(*rows, *cols)
	default:
		return fmt.Errorf("unknown generator %q", *kind)
	}
	if err != nil {
		return err
	}
	if err := multilogvc.WriteEdgeListFile(*out, edges); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vertices, %d directed edges\n",
		*out, graphio.NumVertices(edges), len(edges))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("graph", "", "edge list file")
	fs.Parse(args)
	edges, err := multilogvc.ReadEdgeListFile(*path)
	if err != nil {
		return err
	}
	n := graphio.NumVertices(edges)
	out := graphio.OutDegrees(edges, n)
	var maxDeg uint32
	isolated := 0
	for _, d := range out {
		if d > maxDeg {
			maxDeg = d
		}
		if d == 0 {
			isolated++
		}
	}
	fmt.Printf("vertices:      %d\n", n)
	fmt.Printf("edges:         %d (directed)\n", len(edges))
	fmt.Printf("avg degree:    %.2f\n", float64(len(edges))/float64(n))
	fmt.Printf("max degree:    %d\n", maxDeg)
	fmt.Printf("zero-out-deg:  %d\n", isolated)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	path := fs.String("graph", "", "edge list file")
	dir := fs.String("dir", "", "directory backing the device (required)")
	name := fs.String("name", "g", "graph name inside the device")
	mem := fs.Int64("mem", 64<<20, "memory budget (bytes); sizes vertex intervals")
	pageSize := fs.Int("page", 16384, "SSD page size")
	channels := fs.Int("channels", 8, "SSD channels")
	weighted := fs.Bool("weighted", false, "attach deterministic pseudo-random edge weights [1,16]")
	seed := fs.Uint64("seed", 42, "weight seed")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("build requires -dir")
	}
	edges, err := multilogvc.ReadEdgeListFile(*path)
	if err != nil {
		return err
	}
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{
		PageSize: *pageSize, Channels: *channels, Dir: *dir,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	var g *multilogvc.Graph
	if *weighted {
		g, err = sys.BuildWeightedGraph(*name, multilogvc.RandomWeights(edges, 16, *seed), multilogvc.GraphOptions{MemoryBudget: *mem})
	} else {
		g, err = sys.BuildGraph(*name, edges, multilogvc.GraphOptions{MemoryBudget: *mem})
	}
	if err != nil {
		return err
	}
	fmt.Printf("built %q in %s: %d vertices, %d edges, %d intervals (%.2fs)\n",
		*name, *dir, g.NumVertices(), g.NumEdges(), g.Intervals(), time.Since(start).Seconds())
	fmt.Printf("rerun with: mlvc run -dir %s -name %s -app <app>\n", *dir, *name)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	path := fs.String("graph", "", "edge list file")
	dir := fs.String("dir", "", "reuse a device directory built with `mlvc build`")
	name := fs.String("name", "g", "graph name inside the device (with -dir)")
	appName := fs.String("app", "pagerank", "bfs, pagerank, cdlp, coloring, mis, randomwalk, sssp, wcc, kcore")
	engName := fs.String("engine", "multilogvc", "multilogvc, graphchi, grafboost, grafboost-adapted")
	steps := fs.Int("steps", 15, "max supersteps")
	mem := fs.Int64("mem", 64<<20, "memory budget (bytes)")
	pageSize := fs.Int("page", 16384, "SSD page size")
	channels := fs.Int("channels", 8, "SSD channels")
	source := fs.Uint("source", 0, "bfs source vertex")
	sample := fs.Uint("sample", 1000, "randomwalk: one walker per k vertices")
	seed := fs.Uint64("seed", 42, "randomized app seed")
	noEdgeLog := fs.Bool("no-edgelog", false, "disable the edge-log optimizer")
	async := fs.Bool("async", false, "asynchronous computation model (MultiLogVC only)")
	weighted := fs.Bool("weighted", false, "attach deterministic pseudo-random edge weights [1,16]")
	kcoreK := fs.Uint("k", 3, "kcore: minimum degree k")
	perStep := fs.Bool("per-superstep", false, "print per-superstep stats")
	cacheMB := fs.Int("cache-mb", 0, "page-cache size in MiB; 0 (default) runs uncached")
	retries := fs.Int("retries", 0, "max retries per transient device fault; 0 = default (3), -1 disables")
	timeout := fs.Duration("timeout", 0, "run deadline; expiry commits a checkpoint and exits 9 (0 disables)")
	diskCap := fs.Int64("disk-cap", 0, "device byte quota; writes past it reclaim then exit 8 (0 = unlimited)")
	sortBudget := fs.Int64("sort-budget", 0, "in-memory sort bound (bytes); oversized logs spill to the device (0 = from -mem)")
	ckptEvery := fs.Int("checkpoint-every", 0, "commit a crash-recovery checkpoint every K supersteps; 0 disables")
	resume := fs.Bool("resume", false, "resume from the latest valid checkpoint on the device (requires -dir)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON span trace (Perfetto-loadable)")
	jsonPath := fs.String("json", "", "write the run report as JSON")
	listen := fs.String("listen", "", "serve expvar live metrics and pprof on this address (e.g. :6060)")
	fs.Parse(args)

	if *listen != "" {
		addr, _, err := obsv.Serve(*listen)
		if err != nil {
			return err
		}
		fmt.Printf("debug endpoint on http://%s/debug/vars (pprof at /debug/pprof/)\n", addr)
	}

	engine, err := multilogvc.ParseEngine(*engName)
	if err != nil {
		return err
	}
	prog, err := multilogvc.NewProgramByName(*appName, multilogvc.ProgramOptions{
		Source:      uint32(*source),
		Seed:        *seed,
		SampleEvery: uint32(*sample),
		K:           uint32(*kcoreK),
	})
	if err != nil {
		return err
	}

	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{
		PageSize: *pageSize, Channels: *channels, Dir: *dir, CacheMB: *cacheMB,
		MaxRetries: *retries, DiskCapacity: *diskCap,
	})
	if err != nil {
		return err
	}
	buildStart := time.Now()
	var g *multilogvc.Graph
	if *dir != "" {
		g, err = sys.OpenGraph(*name, *mem)
		if err != nil {
			return err
		}
		fmt.Printf("reopened %q: %d vertices, %d edges, %d intervals (%.2fs)\n",
			*name, g.NumVertices(), g.NumEdges(), g.Intervals(), time.Since(buildStart).Seconds())
	} else {
		edges, err2 := multilogvc.ReadEdgeListFile(*path)
		if err2 != nil {
			return err2
		}
		if *weighted {
			g, err = sys.BuildWeightedGraph("g", multilogvc.RandomWeights(edges, 16, *seed), multilogvc.GraphOptions{MemoryBudget: *mem})
		} else {
			g, err = sys.BuildGraph("g", edges, multilogvc.GraphOptions{MemoryBudget: *mem})
		}
		if err != nil {
			return err
		}
		fmt.Printf("built CSR graph: %d vertices, %d edges, %d intervals (%.2fs)\n",
			g.NumVertices(), g.NumEdges(), g.Intervals(), time.Since(buildStart).Seconds())
	}

	var trace *multilogvc.Trace
	if *tracePath != "" {
		trace = multilogvc.NewTrace()
	}

	// Graceful shutdown: SIGINT/SIGTERM cancels the run context, so the
	// engine commits a checkpoint at the next superstep boundary and exits
	// (code 7); the run can be finished later with -resume.
	runCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	res, err := g.Run(prog, multilogvc.RunOptions{
		Engine:          engine,
		MaxSupersteps:   *steps,
		DisableEdgeLog:  *noEdgeLog,
		Async:           *async,
		Trace:           trace,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		Context:         runCtx,
		SortBudget:      *sortBudget,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Report)
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s (load in ui.perfetto.dev)\n", trace.Len(), *tracePath)
	}
	if *jsonPath != "" {
		data, err := res.Report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
	if *perStep {
		t := &metrics.Table{
			Title:   "per-superstep",
			Headers: []string{"step", "active", "msgs", "pages r", "pages w", "storage", "compute"},
		}
		for _, ss := range res.Report.Supersteps {
			t.AddRow(fmt.Sprint(ss.Superstep), fmt.Sprint(ss.Active),
				fmt.Sprint(ss.MsgsSent), fmt.Sprint(ss.PagesRead),
				fmt.Sprint(ss.PagesWritten), metrics.D(ss.StorageTime), metrics.D(ss.ComputeTime))
		}
		fmt.Print(t)
	}
	return nil
}

// cmdScrub verifies every allocated page of a built device directory
// against its recorded checksum — the offline integrity audit to run
// before trusting (or resuming) a device that sat on real flash. Exits 6
// when any page fails.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	dir := fs.String("dir", "", "device directory to verify (required)")
	pageSize := fs.Int("page", 16384, "SSD page size the device was built with")
	channels := fs.Int("channels", 8, "SSD channels")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("scrub requires -dir")
	}
	sys, err := multilogvc.NewSystem(multilogvc.SystemOptions{
		PageSize: *pageSize, Channels: *channels, Dir: *dir,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := sys.Device().Scrub()
	if err != nil {
		return err
	}
	var pages, unverified, badPages, badFiles int
	for _, r := range results {
		pages += r.Pages
		unverified += r.Unverified
		if !r.OK() {
			badFiles++
			badPages += len(r.Corrupt)
			fmt.Printf("CORRUPT %s: pages %v\n", r.File, r.Corrupt)
		}
	}
	fmt.Printf("scrubbed %d files, %d pages (%d unverified) in %.2fs: %d corrupt pages in %d files\n",
		len(results), pages, unverified, time.Since(start).Seconds(), badPages, badFiles)
	if badPages > 0 {
		return fmt.Errorf("%w: %d corrupt pages on device %s", multilogvc.ErrCorruptPage, badPages, *dir)
	}
	fmt.Println("device is clean")
	return nil
}
