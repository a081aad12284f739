// Command mine runs the software reference miner: exact pattern-aware
// graph mining on the CPU, without any accelerator timing model.
//
// Usage:
//
//	mine -graph soc.txt -pattern tt
//	mine -graph Mi -motif 3
//	mine -graph As -pattern tc -list -limit 10
//
// SIGINT or SIGTERM cancels a count gracefully: workers drain their
// current root chunk, the partial count is reported, and the process
// exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
	"fingers/internal/planopt"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	graphArg := flag.String("graph", "", "dataset mnemonic or edge-list path (required)")
	patternArg := flag.String("pattern", "tc", "named pattern to mine")
	motif := flag.Int("motif", 0, "count all connected k-vertex motifs instead of one pattern")
	edgeInduced := flag.Bool("edge-induced", false, "mine edge-induced subgraphs")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list embeddings instead of counting")
	limit := flag.Int("limit", 20, "max embeddings to list")
	optimize := flag.Bool("optimize", false, "pick the vertex order with the empirical cost model")
	jsonOut := flag.String("json", "", "append one JSONL run record per counted pattern here")
	runTag := flag.String("run-tag", "", "tag stamped into -json records so trend tooling can group this session")
	flag.Parse()

	if *graphArg == "" {
		fmt.Fprintln(os.Stderr, "mine: -graph is required")
		return 2
	}
	if *limit < 0 {
		fmt.Fprintln(os.Stderr, "mine: -limit must not be negative")
		return 2
	}
	// SIGINT/SIGTERM cancels the count: workers drain their current root
	// chunk, the partial count is reported, and the process exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g, err := loadGraph(*graphArg)
	if err != nil {
		return fail(err)
	}
	var runLog *telemetry.RunLog
	if *jsonOut != "" {
		runLog, err = telemetry.OpenRunLog(*jsonOut)
		if err != nil {
			return fail(err)
		}
		defer runLog.Close()
		meta := telemetry.HostMeta()
		meta.RunTag = *runTag
		runLog.SetMeta(meta)
	}
	opts := plan.Options{EdgeInduced: *edgeInduced}
	started := time.Now()
	switch {
	case *motif > 0:
		mp, err := plan.Motif(*motif, opts)
		if err != nil {
			return fail(err)
		}
		counts, cerr := mine.CountMultiCtx(ctx, g, mp, *workers)
		for i, pl := range mp.Plans {
			fmt.Printf("%v: %d\n", pl.Pattern, counts[i])
			logMineRecord(runLog, g, *graphArg, fmt.Sprintf("%v", pl.Pattern), *workers, counts[i], cerr != nil, started)
		}
		if cerr != nil {
			return failRun(cerr, "partial per-pattern counts printed above")
		}
	case *list:
		p, err := pattern.ByName(*patternArg)
		if err != nil {
			return fail(err)
		}
		pl, err := plan.Compile(p, opts)
		if err != nil {
			return fail(err)
		}
		n := 0
		if *limit > 0 {
			mine.List(g, pl, func(emb []uint32) bool {
				fmt.Println(emb)
				n++
				return n < *limit
			})
		}
	default:
		p, err := pattern.ByName(*patternArg)
		if err != nil {
			return fail(err)
		}
		var pl *plan.Plan
		if *optimize {
			res, err := planopt.CompileBest(g, p, planopt.Options{Plan: opts})
			if err != nil {
				return fail(err)
			}
			pl = res.Plan
			fmt.Fprintf(os.Stderr, "order %v: cost %d vs heuristic %d (%d orders tried)\n",
				pl.Order, res.Cost, res.DefaultCost, res.Evaluated)
		} else {
			pl, err = plan.Compile(p, opts)
			if err != nil {
				return fail(err)
			}
		}
		count, cerr := mine.CountCtx(ctx, g, pl, *workers)
		logMineRecord(runLog, g, *graphArg, *patternArg, *workers, count, cerr != nil, started)
		if cerr != nil {
			return failRun(cerr, fmt.Sprintf("partial count over the roots mined so far: %d", count))
		}
		fmt.Printf("%s embeddings: %d\n", *patternArg, count)
	}
	fmt.Fprintf(os.Stderr, "[%v]\n", time.Since(started).Round(time.Millisecond))
	return 0
}

// logMineRecord appends one fingers.run/v1 record for a software count:
// arch "software", no accelerator timing (cycles stay zero), wall time
// and count carried so the trend viewer can track miner throughput.
// No-op without -json; log I/O failures are reported, never fatal.
func logMineRecord(log *telemetry.RunLog, g *graph.Graph, graphName, patternName string, workers int, count uint64, partial bool, started time.Time) {
	if log == nil {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := graph.ComputeStats(g)
	rec := telemetry.RunRecord{
		Schema: telemetry.RunSchema,
		Arch:   "software",
		Graph: telemetry.GraphInfo{
			Name:      graphName,
			Vertices:  st.Vertices,
			Edges:     st.Edges,
			AvgDegree: st.AvgDegree,
			MaxDegree: st.MaxDegree,
		},
		Experiment: "mine",
		Pattern:    patternName,
		PEs:        workers,
		Count:      count,
		Partial:    partial,
	}
	rec.StartedAt = started.UTC().Format(time.RFC3339Nano)
	rec.WallNS = time.Since(started).Nanoseconds()
	if err := log.Write(rec); err != nil {
		fmt.Fprintln(os.Stderr, "mine: run log:", err)
	}
}

func loadGraph(arg string) (*graph.Graph, error) {
	if d, err := datasets.ByName(arg); err == nil {
		return d.Graph(), nil
	}
	return graph.LoadFile(arg)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mine:", err)
	return 1
}

// failRun reports a mining failure with its partial-progress note:
// exit 130 for a signal-driven cancellation (the shell convention for
// SIGINT), 1 for a recovered mining panic.
func failRun(err error, partialNote string) int {
	fmt.Fprintf(os.Stderr, "mine: %v; %s\n", err, partialNote)
	if se, ok := simerr.As(err); ok && se.IsCancellation() {
		return 130
	}
	return 1
}
