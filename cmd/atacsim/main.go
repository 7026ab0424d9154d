// Command atacsim runs one benchmark on one architecture and prints the
// performance and energy results.
//
// Usage:
//
//	atacsim -bench radix -net atac+ -cores 64 -scale 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/photonics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/tech"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atacsim: ")

	f := experiments.Flags{Geometry: experiments.Geometry{Net: "atac+", Cores: 64, Sharers: 4,
		Coherence: "ackwise", FlitBits: 64, Seed: 42},
		Runner: &experiments.Runner{Opt: experiments.Options{Scale: 1}}}
	f.Bind(flag.CommandLine, "net", "cores", "sharers", "coherence", "flit", "rthres",
		"hybrid-radius", "tech", "optics", "seed", "scale", "shards", "run-timeout", "version")
	var (
		bench   = flag.String("bench", "radix", "benchmark: dynamic_graph, radix, barnes, fmm, ocean_contig, lu_contig, ocean_non_contig, lu_non_contig")
		heat    = flag.Bool("heatmap", false, "print the mesh congestion heatmap")
		traceN  = flag.Int("trace", 0, "dump the last N protocol events after the run")
		cfgPath = flag.String("config", "", "load the system configuration from this JSON file (overrides the geometry flags)")
		dumpCfg = flag.String("dumpconfig", "", "write the effective configuration as JSON to this file and exit")

		// Observability (internal/metrics, internal/trace).
		metricsDir = flag.String("metrics-dir", "", "write per-epoch metrics.csv and metrics.json into this directory")
		epochN     = flag.Int("epoch", 10000, "metrics epoch length in cycles")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON timeline (chrome://tracing, Perfetto) to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		// Fault injection and simulation health (internal/fault).
		oBER      = flag.Float64("ber", 0, "optical per-bit error rate on the ONet (0 = perfect)")
		mBER      = flag.Float64("meshber", 0, "per-bit error rate on electrical mesh links (0 = perfect)")
		driftP    = flag.Int("drift-period", 0, "thermal ring-drift episode period in cycles (0 = no drift)")
		driftD    = flag.Int("drift-duty", 0, "cycles of each drift period spent drifted")
		driftM    = flag.Float64("drift-mult", 0, "BER multiplier while a drift episode is active")
		droop     = flag.Float64("droop", 0, "laser droop: fractional optical BER growth per Mcycle")
		retries   = flag.Int("retries", 0, "max retransmissions per flit/packet (0 = default)")
		degrade   = flag.Float64("degrade", 0, "observed error rate above which an optical channel degrades to the ENet (0 = never)")
		faultSeed = flag.Int64("faultseed", 0, "fault stream seed (0 = derive from -seed)")
		watchdog  = flag.Int("watchdog", 0, "progress watchdog sampling interval in cycles (0 = off)")
	)
	flag.Parse()

	if f.Version {
		fmt.Println(version.String())
		return
	}
	if *bench == "list" {
		for _, n := range workloadNames() {
			fmt.Println(n)
		}
		return
	}

	var cfg config.Config
	var err error
	if *cfgPath != "" {
		cfg, err = config.LoadFile(*cfgPath)
	} else {
		cfg, err = experiments.BuildConfig(f.Geometry)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *oBER > 0 || *mBER > 0 {
		cfg.Fault.Enabled = true
		cfg.Fault.OpticalBER = *oBER
		cfg.Fault.MeshBER = *mBER
		cfg.Fault.DriftPeriod = *driftP
		cfg.Fault.DriftDuty = *driftD
		cfg.Fault.DriftBERMult = *driftM
		cfg.Fault.LaserDroopPerMCycle = *droop
		cfg.Fault.MaxRetries = *retries
		cfg.Fault.DegradeThreshold = *degrade
		cfg.Fault.Seed = *faultSeed
	}
	if *watchdog > 0 {
		cfg.Fault.WatchdogInterval = *watchdog
		if cfg.Fault.WatchdogStalls == 0 {
			cfg.Fault.WatchdogStalls = 3
		}
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if *dumpCfg != "" {
		if err := cfg.SaveFile(*dumpCfg); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *dumpCfg)
		return
	}

	if *pprofAddr != "" {
		go func() { log.Println(http.ListenAndServe(*pprofAddr, nil)) }()
	}

	nsh := f.Runner.Shards
	if nsh <= 0 {
		nsh = experiments.DefaultShards()
	}
	if nsh > 1 && (*traceN > 0 || *traceOut != "") {
		// The protocol trace ring records the coherence layer's global event
		// order from concurrent shard goroutines without synchronization;
		// only the serial kernel can feed it coherently.
		log.Println("protocol tracing forces serial execution; ignoring -shards")
		nsh = 1
	}
	sys, err := system.NewSharded(cfg, nsh)
	if err != nil {
		log.Fatal(err)
	}
	if nsh > 1 && sys.Shards != nsh {
		if cfg.Fault.Enabled {
			// The injector draws from one global RNG stream whose draw order
			// no conservative window schedule can reproduce.
			log.Println("fault injection forces serial execution; ignoring -shards")
		} else {
			log.Printf("using %d shards (%d requested; shards must divide the %d cluster rows)",
				sys.Shards, nsh, cfg.MeshDim()/cfg.ClusterDim)
		}
	}
	spec, err := system.WorkloadFor(cfg, *bench, f.Runner.Opt.Scale)
	if err != nil {
		log.Fatal(err)
	}
	var ring *trace.Ring
	if n := *traceN; n > 0 || *traceOut != "" {
		if n <= 0 {
			n = 4096 // timeline export only: retain a useful tail
		}
		ring = trace.New(n)
		sys.Coh.Tracer = ring
	}
	var col *metrics.Collector
	if *metricsDir != "" || *traceOut != "" {
		col = metrics.New(sys.Clock(), sim.Time(*epochN))
		sys.AttachMetrics(col)
	}
	// SIGINT/SIGTERM (and -run-timeout) cancel the simulation cooperatively
	// at the kernel's next poll, so an interrupted run still flushes its
	// observability sinks below instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if d := f.Runner.RunTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, fmt.Errorf("run deadline %v exceeded", d))
		defer cancel()
	}
	res, err := sys.RunContext(ctx, spec, 0)
	// Flush the observability sinks before acting on the run error: the
	// time series of a wedged or fault-aborted run is exactly what the
	// investigation needs.
	label := fmt.Sprintf("%s on %v", *bench, cfg.Network.Kind)
	if werr := writeMetrics(*metricsDir, *traceOut, label, col, ring); werr != nil {
		log.Fatal(werr)
	}
	if err != nil {
		log.Fatal(err)
	}
	m, err := energy.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bd := energy.Combine(m, res)

	fmt.Printf("benchmark        %s on %v (%d cores, %v%d)\n",
		res.Benchmark, cfg.Network.Kind, cfg.Cores, cfg.Coherence.Kind, cfg.Coherence.Sharers)
	fmt.Printf("technology       %s electronics, %s optics\n",
		tech.Canonical(cfg.Tech), photonics.Canonical(cfg.Optics))
	fmt.Printf("completion time  %d cycles (%.3f ms at 1 GHz)\n", res.Cycles, float64(res.Cycles)*1e-6)
	fmt.Printf("instructions     %d (IPC %.3f)\n", res.Instructions, res.IPC())
	fmt.Printf("offered load     %.4f flits/cycle/core\n", res.OfferedLoad())
	fmt.Printf("broadcast recv   %.1f%% of deliveries\n", res.BroadcastRecvFraction()*100)
	fmt.Printf("L1D misses       %d (of %d accesses)\n", res.Coh.L1DMisses, res.Coh.L1DReads+res.Coh.L1DWrites)
	fmt.Printf("L2 misses        %d; inv broadcasts %d; inv unicasts %d\n",
		res.Coh.L2Misses, res.Coh.InvBroadcasts, res.Coh.InvUnicasts)
	if cfg.Network.Kind.IsOptical() {
		fmt.Printf("SWMR link        %.1f%% utilized, %.1f unicasts/broadcast\n",
			res.LinkUtilization*100, res.UnicastsPerBcast)
	}
	fmt.Printf("energy           %v\n", bd)
	fmt.Printf("E-D product      %.6g J·s\n", energy.EDP(m, res))
	if res.Net.FaultEvents() {
		n := res.Net
		fmt.Printf("faults           mesh: %d errors, %d retx flits, %d forced through\n",
			n.MeshNacks, n.MeshRetxFlits, n.MeshRetriesExhausted)
		fmt.Printf("                 optical: %d errors, %d retx pkts (%d flits), %d forced through\n",
			n.OpticalFlitErrors, n.OpticalRetxPkts, n.OpticalRetxFlits, n.OpticalRetriesExhausted)
		fmt.Printf("                 degraded channels %d; rerouted %d msgs (%d flits)\n",
			n.DegradedChannels, n.ReroutedMsgs, n.ReroutedFlits)
		fmt.Print(degradedLine(sys.Net, cfg.Network.Kind))
		fmt.Printf("                 resilience overhead %.3g J\n", energy.ResilienceOverheadJ(m, res))
	}

	if *heat {
		fmt.Print(meshHeatmap(sys.Net, cfg.MeshDim()))
	}
	if ring != nil && *traceN > 0 {
		fmt.Printf("\nlast %d of %d protocol events:\n%s", len(ring.Entries()), ring.Total(), ring.Dump())
	}
}

// degradedLine names the optical channels the fabric has declared degraded
// — clusters on ATAC, gateways on the hybrid — as one report line; empty
// when there are none or the fabric has no degradable channel.
func degradedLine(net noc.Network, kind config.NetworkKind) string {
	var ch []int
	if d, ok := net.(interface{ DegradedChannels() []int }); ok {
		ch = d.DegradedChannels()
	}
	if len(ch) == 0 {
		return ""
	}
	what := "clusters"
	if kind == config.HybridMesh {
		what = "gateways"
	}
	return fmt.Sprintf("                 degraded %s %v\n", what, ch)
}

// meshHeatmap renders the congestion heatmap of the fabric's electrical
// mesh: the fabric itself on the EMesh kinds, the embedded ENet on every
// optical one.
func meshHeatmap(net noc.Network, dim int) string {
	mesh, _ := net.(*noc.Mesh)
	if e, ok := net.(interface{ ENet() *noc.Mesh }); ok {
		mesh = e.ENet()
	}
	if mesh == nil {
		return ""
	}
	hm := stats.NewHeatmap(dim)
	for i, v := range mesh.RouterFlits() {
		hm.Add(i%dim, i/dim, v)
	}
	x, y, v := hm.Hottest()
	return fmt.Sprintf("\nmesh congestion heatmap (hottest router (%d,%d): %d flits):\n%s", x, y, v, hm.Render())
}

// writeMetrics flushes the metrics and timeline sinks: per-epoch CSV and
// JSON series into dir, and a Chrome trace_event timeline (with the
// protocol ring's retained events as instant markers) to traceOut.
func writeMetrics(dir, traceOut, label string, col *metrics.Collector, ring *trace.Ring) error {
	if col == nil {
		return nil
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for name, write := range map[string]func(*os.File) error{
			"metrics.csv":  func(f *os.File) error { return col.WriteCSV(f) },
			"metrics.json": func(f *os.File) error { return col.WriteJSON(f) },
		} {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%s -> %s\n", col.Summary(), dir)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f, label, instantsFrom(ring)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline -> %s (open in chrome://tracing or Perfetto)\n", traceOut)
	}
	return nil
}

// instantsFrom converts the trace ring's retained protocol events into
// Chrome-trace instant markers. Ring entries and metric epochs are both
// stamped from the kernel clock, so they land on the same timeline axis.
func instantsFrom(ring *trace.Ring) []metrics.Instant {
	entries := ring.Entries()
	if len(entries) == 0 {
		return nil
	}
	out := make([]metrics.Instant, len(entries))
	for i, e := range entries {
		out[i] = metrics.Instant{At: e.At, Cat: e.Kind, Name: e.Text}
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, s := range workload.ExtendedCatalog(16, 1, 1) {
		names = append(names, s.Name)
	}
	return names
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "atacsim: run one benchmark on one on-chip network architecture\n\n")
		flag.PrintDefaults()
	}
}
