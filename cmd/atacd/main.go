// Command atacd is the simulation-as-a-service daemon: it serves the
// campaign engine over HTTP/JSON. Submitted jobs share the engine's
// worker pool, singleflight dedup, persistent result cache and run
// journal, so identical requests — concurrent or across restarts — cost
// one simulation; progress streams live over Server-Sent Events fed by
// the per-epoch metrics layer.
//
// Usage:
//
//	atacd -addr :8347 -cache-dir /var/cache/atac
//	atacctl -addr http://localhost:8347 submit -bench radix -cores 16
//
// Shutdown is the campaign's two-stage drain: the first SIGINT/SIGTERM
// stops admission (submits get 503, /healthz flips to draining) and lets
// in-flight simulations finish and journal; a second signal — or the
// -grace window expiring — cancels them at the kernel's next poll. A
// restarted daemon pointed at the same cache serves the drained runs'
// results without re-simulating.
//
// The daemon is also crash-only: every accepted job is persisted to a
// durable ledger (jobs.jsonl next to the campaign journal) before the
// 202 response, and startup replays the ledger, re-enqueueing everything
// the previous process owed an answer for. SIGKILL at any instant
// therefore converges to the same bytes — the cache and journal guarantee
// zero duplicate simulations on resume — and atacctl clients ride across
// the restart with retries and SSE reconnection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atacd: ")
	os.Exit(run())
}

// selfFromAddr derives this node's ring URL from the listen address when
// -self is not given: ":8347" and wildcard hosts become loopback, which
// is right for single-machine clusters (the smoke test's topology); real
// deployments pass -self explicitly.
func selfFromAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return cluster.NormalizePeer(addr)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return cluster.NormalizePeer("http://" + net.JoinHostPort(host, port))
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: atacd [flags]; -cores and -seed are the defaults for jobs that name none")
		flag.PrintDefaults()
	}
	r := experiments.NewRunner(experiments.Options{Scale: 1})
	r.Retries = 2
	f := experiments.Flags{Geometry: experiments.Geometry{Cores: 64, Seed: 42}, Runner: r,
		Grace: 30 * time.Second}
	f.Bind(flag.CommandLine, "cores", "seed", "scale", "jobs", "retries",
		"run-timeout", "cache-dir", "no-cache", "cache-max-bytes", "grace", "version")
	var (
		addr  = flag.String("addr", ":8347", "HTTP listen address")
		depth = flag.Int("queue-depth", 64, "bounded job queue length; beyond it submits get 429")
		epoch = flag.Int("epoch", 10000, "progress-stream epoch length in cycles (0 disables live epoch events)")

		storePath  = flag.String("store", "", "durable job ledger path (default: jobs.jsonl next to the cache; requires a cache unless set)")
		noStore    = flag.Bool("no-store", false, "disable the durable job store (jobs do not survive a crash)")
		reqTimeout = flag.Duration("request-timeout", 15*time.Second, "per-request deadline for non-streaming HTTP endpoints")

		peersFlag = flag.String("peers", "", "comma-separated cluster peer base URLs, including this node (empty = single-node)")
		selfFlag  = flag.String("self", "", "this node's base URL as it appears in -peers (default: derived from -addr)")
		replicas  = flag.Int("replicas", 2, "nodes holding each result (owner included); capped at the cluster size")
		probeIvl  = flag.Duration("probe-interval", 2*time.Second, "peer health-probe cadence")
	)
	flag.Parse()

	if f.Version {
		fmt.Println(version.String())
		return 0
	}
	// Fail on an impossible default machine before binding the listen
	// address.
	if _, err := experiments.BuildConfig(f.Geometry); err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}

	r.Opt.Cores, r.Opt.Seed = f.Cores, f.Seed
	r.RecallFailures = true
	r.EpochCycles = sim.Time(*epoch)
	closeCache, err := f.AttachCache(true, log.Printf)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeCache()
	if r.Cache != nil {
		log.Printf("cache: %s", r.Cache.Dir())
	}

	// The durable job store: accepted jobs are persisted before the 202
	// and replayed on startup, so SIGKILL loses nothing. Without a cache
	// (or with -no-store) the daemon still runs, just non-durably.
	var store *serve.JobStore
	if !*noStore {
		path := *storePath
		if path == "" && r.Cache != nil {
			path = filepath.Join(r.Cache.Dir(), serve.StoreFileName)
		}
		if path == "" {
			log.Print("warning: no cache and no -store: jobs will not survive a crash")
		} else {
			st, err := serve.OpenJobStore(path)
			if err != nil {
				log.Print(err)
				return experiments.ExitFatal
			}
			store = st
			defer func() {
				if err := st.Close(); err != nil {
					log.Printf("warning: job store close: %v", err)
				}
			}()
			log.Printf("job store: %s (%d pending)", path, st.Pending())
		}
	}

	// Cluster mode: a static -peers list joined by a rendezvous-hash ring.
	// Each node forwards submits to the run hash's owner (falling back to
	// local execution when the owner is probed down), replicates finished
	// results to the hash's replica set, and read-through-fetches misses
	// from peers — so killing any node loses no completed work and costs
	// no duplicate simulation.
	var clusterCfg *serve.ClusterConfig
	if peers := cluster.ParsePeers(*peersFlag); len(peers) > 0 {
		self := cluster.NormalizePeer(*selfFlag)
		if self == "" {
			self = selfFromAddr(*addr)
		}
		ring := cluster.NewRing(peers)
		if !ring.Contains(self) {
			log.Printf("this node (%s) is not in -peers %s; pass -self with its ring URL", self, strings.Join(ring.Peers(), ","))
			return experiments.ExitFatal
		}
		if ring.Len() > 1 {
			var others []string
			for _, p := range ring.Peers() {
				if p != self {
					others = append(others, p)
				}
			}
			prober := cluster.NewProber(others, cluster.ProberOptions{Interval: *probeIvl, Logf: log.Printf})
			prober.Start(context.Background())
			defer prober.Stop()
			pick := func(hash string) []string {
				var out []string
				for _, p := range ring.Replicas(hash, *replicas) {
					if p != self && prober.Healthy(p) {
						out = append(out, p)
					}
				}
				return out
			}
			if r.Cache != nil {
				r.Store = &resultstore.Tiered{
					Local:  r.Cache,
					Remote: &resultstore.Peers{Pick: pick, Schema: version.CacheSchema, Logf: log.Printf},
				}
			} else {
				log.Print("warning: clustered without a cache: results cannot replicate to or be recalled from peers")
			}
			clusterCfg = &serve.ClusterConfig{Self: self, Ring: ring, Healthy: prober.Healthy, Snapshot: prober.Snapshot}
			log.Printf("cluster: %d nodes, self %s, %d replicas per result", ring.Len(), self, *replicas)
		}
	}

	srv := serve.New(r, serve.Options{
		QueueDepth:     *depth,
		Workers:        r.Jobs,
		RequestTimeout: *reqTimeout,
		Store:          store,
		Cluster:        clusterCfg,
	}, log.Printf)
	ctx, stopSignals := r.InstallSignalHandler(f.Grace, log.Printf, srv.Drain)
	defer stopSignals()
	srv.SetBaseContext(ctx)

	// ReadHeaderTimeout guards against peers that open connections and
	// never speak; handler-level timeouts (serve.Options.RequestTimeout)
	// bound everything after the headers.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("%s listening on %s", version.String(), *addr)

	select {
	case err := <-errc:
		log.Print(err)
		return experiments.ExitFatal
	case <-srv.Draining():
	}

	// Drain: finish what is queued and in flight (bounded by the
	// hard-cancel context), then stop the listener. SSE streams close as
	// their jobs finish, so Shutdown's own grace can stay short.
	log.Print("draining: waiting for in-flight jobs")
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain cut short: %v", err)
	}
	hctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(hctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("drained; bye")
	return experiments.ExitOK
}
