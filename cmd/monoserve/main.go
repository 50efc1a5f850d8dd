// Command monoserve runs the monotone-classification HTTP service: it
// loads a trained anchor model (written by `monoclass passive -save`
// or `monoclass active -save`) and serves classify traffic with hot
// model swaps.
//
// Usage:
//
//	monoserve -model model.json [-addr :8080]
//	          [-queue 1024] [-workers N]
//	          [-holdout data.csv -max-werr 120] [-spot-audit]
//	          [-learn] [-train data.csv] [-rebuild-every 64]
//	          [-max-drift W] [-learn-queue 1024]
//	          [-replicas N -sync-interval 100ms]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// With -train, the initial model is trained from the labeled CSV at
// startup instead of loaded with -model, and (with -learn) the online
// updater starts from that same multiset — so incremental deltas via
// POST /learn extend exactly the state being served. -learn with
// -model starts the updater from an empty multiset: the loaded model
// serves until the first exact rebuild retrains on the deltas alone.
//
// Endpoints:
//
//	POST /classify        {"point":[...]}         single point
//	POST /classify/batch  {"points":[[...],...]}  client-side batch
//	POST /learn           {"deltas":[...]}        insert/delete labeled points (with -learn)
//	GET  /model           current model JSON (X-Model-Version header)
//	POST /model           promote a new model (gated by audits)
//	GET  /healthz         liveness + current version
//	GET  /stats           counters: requests, batch histogram, swaps, online learning
//
// With -replicas N (N > 1) the process runs an in-process scale-out
// fleet: N replica servers on loopback ports behind a sharding router
// listening on -addr. Promotions land on the primary replica and
// replicate to the fleet every -sync-interval; audits and learning
// stay primary-side. For a cross-process fleet, run N monoserve
// processes and front them with cmd/monoshard instead.
//
// The process drains gracefully on SIGINT/SIGTERM: accepted requests
// are answered before exit. When the queue is full, new requests are
// rejected with 429 and a Retry-After header rather than queued
// unboundedly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"monoclass"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "monoserve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("monoserve", flag.ExitOnError)
	model := fs.String("model", "", "trained model JSON (required)")
	addr := fs.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	queue := fs.Int("queue", 1024, "bounded intake queue capacity (backpressure beyond it)")
	workers := fs.Int("workers", 0, "dispatcher goroutines (0: GOMAXPROCS)")
	holdout := fs.String("holdout", "", "labeled CSV; candidate models must fit it within -max-werr to be promoted")
	maxWErr := fs.Float64("max-werr", 0, "weighted-error budget on -holdout for model promotion")
	spotAudit := fs.Bool("spot-audit", false, "re-check monotonicity of candidate models before promotion")
	learn := fs.Bool("learn", false, "enable the POST /learn incremental-learning endpoint")
	train := fs.String("train", "", "labeled CSV to train the initial model from (alternative to -model; implies -learn seeding)")
	rebuildEvery := fs.Int("rebuild-every", 64, "exact re-solve after this many deltas (1: every delta)")
	maxDrift := fs.Float64("max-drift", 0, "force an exact re-solve when the drift bound exceeds this weight (0: no cap)")
	learnQueue := fs.Int("learn-queue", 1024, "bounded delta queue capacity (backpressure beyond it)")
	replicas := fs.Int("replicas", 1, "serve through an in-process replica fleet of this size behind a sharding router (1: single server)")
	syncInterval := fs.Duration("sync-interval", 100*time.Millisecond, "model replication poll cadence with -replicas > 1")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (training + serving) to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file")
	fs.Parse(args)
	if (*model == "") == (*train == "") {
		return fmt.Errorf("exactly one of -model or -train is required")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "monoserve: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "monoserve: %v\n", err)
			}
		}()
	}

	var h *monoclass.AnchorSet
	var trainSet monoclass.WeightedSet
	var prepStats *monoclass.PrepareStats
	if *train != "" {
		tf, err := os.Open(*train)
		if err != nil {
			return err
		}
		trainSet, err = monoclass.ReadCSV(tf)
		tf.Close()
		if err != nil {
			return err
		}
		// Prepare once, train on the prepared instance: same solution as
		// OptimalPassive, but the prepare provenance (warm-started exact
		// decomposition vs greedy fallback, stage timings) is kept and
		// served through /stats and the /model headers.
		p, err := monoclass.PrepareProblem(trainSet, monoclass.ProblemOptions{})
		if err != nil {
			return err
		}
		sol, err := monoclass.TrainPrepared(p)
		if err != nil {
			return err
		}
		st := p.Stats()
		prepStats = &st
		h = sol.Classifier
		fmt.Printf("monoserve: trained on %d points, optimal weighted error %g (cover %d chains, exact width %v, prepare %s)\n",
			len(trainSet), sol.WErr, st.Width, st.ExactWidth, time.Duration(st.TotalNS).Round(time.Millisecond))
	} else {
		f, err := os.Open(*model)
		if err != nil {
			return err
		}
		h, err = monoclass.LoadModel(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	var audits []monoclass.AuditFunc
	if *spotAudit {
		audits = append(audits, monoclass.SpotAudit(nil))
	}
	if *holdout != "" {
		hf, err := os.Open(*holdout)
		if err != nil {
			return err
		}
		ws, err := monoclass.ReadCSV(hf)
		hf.Close()
		if err != nil {
			return err
		}
		audits = append(audits, monoclass.HoldoutAudit(ws, *maxWErr))
	}
	cfg := monoclass.ServeConfig{
		Batch: monoclass.BatcherConfig{
			QueueCap: *queue,
			Workers:  *workers,
		},
		Prepare: prepStats,
	}
	if len(audits) > 0 {
		cfg.Audit = monoclass.ChainAudits(audits...)
	}
	if *learn || *train != "" {
		cfg.Online = &monoclass.ServeOnlineConfig{
			Initial:      trainSet, // empty with -model: cold updater
			RebuildEvery: *rebuildEvery,
			MaxDrift:     *maxDrift,
			QueueCap:     *learnQueue,
		}
	}

	if *replicas > 1 {
		// Scale-out mode: N replica servers on loopback ports behind a
		// sharding router listening on -addr. Audits and learning stay on
		// the primary; the syncer fans promotions out to the fleet.
		ccfg := monoclass.ShardClusterConfig{
			Replicas:     *replicas,
			Serve:        cfg,
			SyncInterval: *syncInterval,
		}
		return monoclass.ServeCluster(context.Background(), *addr, h, ccfg, func(bound string) {
			fmt.Printf("monoserve: serving dim-%d model (%d anchors) via %d replicas on %s\n",
				h.Dim(), len(h.Anchors()), *replicas, bound)
		})
	}
	return monoclass.Serve(context.Background(), *addr, h, cfg, func(bound string) {
		fmt.Printf("monoserve: serving dim-%d model (%d anchors) on %s\n", h.Dim(), len(h.Anchors()), bound)
	})
}
