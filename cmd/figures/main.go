// Command figures regenerates every table and figure of the paper's
// evaluation section and writes them to stdout (and optionally a file).
//
// Usage:
//
//	figures -cores 256            # the whole campaign at 256 cores
//	figures -cores 1024 -only 8   # just Fig 8 at paper scale
//
// The campaign is crash-safe and resumable: run-state transitions are
// write-ahead journaled next to the result cache, a failed or panicking
// run degrades its figure cells instead of killing the campaign, and a
// SIGINT/SIGTERM drains in-flight runs (second signal, or -grace expiry,
// cancels them) before rendering what completed. Exit codes: 0 all runs
// completed, 1 fatal setup/I-O error, 3 finished degraded (some runs
// terminally failed), 4 interrupted (re-run the same command to resume).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/photonics"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/tech"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	os.Exit(run())
}

func run() int {
	r := experiments.NewRunner(experiments.Options{Scale: 1})
	r.Retries = 2
	f := experiments.Flags{Geometry: experiments.Geometry{Cores: 64, Seed: 42}, Runner: r,
		Grace: 15 * time.Second}
	f.Bind(flag.CommandLine, "cores", "seed", "tech", "optics", "scale", "q", "jobs", "retries",
		"run-timeout", "cache-dir", "no-cache", "cache-max-bytes", "grace", "version")
	var (
		scenList = flag.String("scenarios", "", `techsweep scenario list, comma-separated "tech[/optics]" pairs (default: the built-in six-point sweep)`)
		topoList = flag.String("topos", "", `xtopo topology list, comma-separated network names, e.g. "bcast,corona,hybrid" (default: bcast,atac+,corona,hybrid; first entry is the normalization reference)`)
		only     = flag.String("only", "", "comma-separated subset of "+strings.Join(experiments.FigureIDs(), ","))
		out      = flag.String("o", "", "also write results to this file")
		svgDir   = flag.String("svg", "", "also render each figure as an SVG into this directory")
		format   = flag.String("format", "text", "output format: text, csv, json")
		clear    = flag.Bool("clear-cache", false, "invalidate the persistent result cache, then proceed")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		noJournal   = flag.Bool("no-journal", false, "disable the write-ahead run journal (journal.jsonl next to the cache)")
		retryFailed = flag.Bool("retry-failed", false, "re-attempt runs the journal recorded as terminally failed")
	)
	flag.Parse()

	if f.Version {
		fmt.Println(version.String())
		return 0
	}
	if *pprofA != "" {
		go func() { log.Println(http.ListenAndServe(*pprofA, nil)) }()
	}
	start := time.Now()

	form, err := report.ParseFormat(*format)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	// Resolve the campaign machine before spending any simulation time: an
	// impossible core count or a scenario typo fails here, not in every run.
	if _, err := experiments.BuildConfig(f.Geometry); err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	scens, err := experiments.ParseScenarios(*scenList)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	topos, err := parseTopologies(*topoList)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	selected, err := selectFigures(*only)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	o := &r.Opt // -scale is already bound into it
	o.Cores, o.Seed, o.Tech, o.Optics = f.Cores, f.Seed, f.Tech, f.Optics
	o.Scenarios, o.Topologies = scens, topos
	r.Partial = true
	r.RecallFailures = !*retryFailed
	runs := r.CampaignRuns(selected)
	if !f.Quiet {
		r.Events = narrate(os.Stderr, len(runs), r.Retries+1)
	}
	closeCache, err := f.AttachCache(!*noJournal, log.Printf)
	if err != nil {
		log.Print(err)
		return experiments.ExitFatal
	}
	defer closeCache()
	if r.Cache != nil && *clear {
		if err := r.Cache.Invalidate(); err != nil {
			log.Printf("warning: %v", err)
		}
	}
	_, stopSignals := r.InstallSignalHandler(f.Grace, log.Printf, nil)
	defer stopSignals()

	var w io.Writer = os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		defer file.Close()
		w = io.MultiWriter(os.Stdout, file)
	}

	fmt.Fprintf(w, "ATAC+ evaluation campaign: %d cores, scale %d, seed %d, %s electronics, %s optics\n\n",
		o.Cores, o.Scale, o.Seed, tech.Canonical(o.Tech), photonics.Canonical(o.Optics))

	// Declare the whole campaign's run-set up front so the worker pool is
	// saturated from the start, instead of discovering runs one figure at
	// a time. The serial loop below then renders from warm memo entries.
	r.Prefetch(runs)

	figureFailed := false
	for _, id := range selected {
		t, err := r.Figure(id)
		if err != nil {
			// Partial mode absorbs per-run failures into annotated cells;
			// an error here means the whole figure is unrenderable. Skip it
			// and keep going — the other figures are still worth emitting.
			log.Printf("figure %s: %v", id, err)
			figureFailed = true
			continue
		}
		if err := report.Write(w, t, form); err != nil {
			log.Print(err)
			return experiments.ExitFatal
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, id, t); err != nil {
				log.Print(err)
				return experiments.ExitFatal
			}
		}
	}
	if !f.Quiet {
		fmt.Fprintf(os.Stderr, "campaign: %d simulations run, %d recalled from cache, %d failures recalled from journal\n",
			r.FreshRuns(), r.CacheHits(), r.RecalledFailures())
	}
	// Provenance manifest next to the figure outputs: what was run, from
	// which revision, how much came from the cache, and — for degraded
	// campaigns — the full failure/retry ledger.
	if dir := manifestDir(*svgDir, *out); dir != "" {
		p := r.Provenance(selected, time.Since(start))
		path := filepath.Join(dir, "manifest.json")
		if err := experiments.WriteManifest(path, p); err != nil {
			log.Printf("warning: manifest: %v", err)
		} else if !f.Quiet {
			fmt.Fprintln(os.Stderr, "provenance ->", path)
		}
	}

	code := r.ExitCode()
	if code == experiments.ExitOK && figureFailed {
		code = experiments.ExitDegraded
	}
	switch code {
	case experiments.ExitInterrupted:
		log.Printf("campaign interrupted; re-run the same command to resume from the journal")
	case experiments.ExitDegraded:
		log.Printf("campaign degraded: %d run(s) failed (see manifest failure ledger; -retry-failed re-attempts them)",
			len(r.FailedRuns()))
	}
	return code
}

// narrate returns the Events consumer behind the campaign's stderr
// narration: one line per run transition, "[settled/total] bench@config
// <hash> <phase>" and what the phase carries, where total is the declared
// run count and attempts each run's budget. Events arrive serialized, so
// the counter needs no lock.
func narrate(w io.Writer, total, attempts int) func(experiments.RunEvent) {
	settled := 0
	return func(ev experiments.RunEvent) {
		what := ev.Error // failed, interrupted
		switch ev.Phase {
		case experiments.PhaseStart:
			what = fmt.Sprintf("attempt 1/%d", attempts)
		case experiments.PhaseRetry: // the per-run deadline is the only transient failure
			what = fmt.Sprintf("attempt %d/%d after a per-run deadline", ev.Attempt, attempts)
		case experiments.PhaseDone:
			what = fmt.Sprintf("%d cycles in %.0f ms", ev.Cycles, ev.WallMS)
		case experiments.PhaseCached:
			what = fmt.Sprintf("%d cycles", ev.Cycles)
		case experiments.PhaseRecalled:
			what = fmt.Sprintf("from the journal, %d attempt(s): %s", ev.Attempt, ev.Error)
		}
		if ev.Phase != experiments.PhaseStart && ev.Phase != experiments.PhaseRetry {
			settled++
		}
		line := fmt.Sprintf("[%d/%d] %s@%s %s %s %s", settled, total, ev.Benchmark, ev.Config, ev.Hash[:12], ev.Phase, what)
		fmt.Fprintln(w, strings.TrimSpace(line))
	}
}

// selectFigures resolves the -only list against the figure table: the
// named ids in campaign order, or the whole table for an empty list. An id
// the table does not have is an error, so a typo cannot pass for a
// campaign that selected nothing.
func selectFigures(only string) ([]string, error) {
	ids := experiments.FigureIDs()
	want := strings.FieldsFunc(strings.ToLower(only), func(c rune) bool { return c == ',' || c == ' ' })
	if len(want) == 0 {
		return ids, nil
	}
	for _, s := range want {
		if !slices.Contains(ids, s) {
			return nil, fmt.Errorf("-only: unknown figure %q (valid: %s)", s, strings.Join(ids, ", "))
		}
	}
	return slices.DeleteFunc(ids, func(id string) bool { return !slices.Contains(want, id) }), nil
}

// parseTopologies parses the -topos list through the shared network-name
// resolver, so the xtopo figure accepts exactly the spellings atacsim
// does. An empty string yields nil (the built-in four-topology set).
func parseTopologies(s string) ([]config.NetworkKind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []config.NetworkKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := experiments.ParseNetworkKind(part)
		if err != nil {
			return nil, fmt.Errorf("-topos: %v", err)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-topos %q names no topologies", s)
	}
	return out, nil
}

// manifestDir picks where the provenance manifest lives: beside the SVG
// outputs when rendered, else beside the -o results file. A stdout-only
// campaign leaves no files, so it gets no manifest either.
func manifestDir(svgDir, out string) string {
	if svgDir != "" {
		return svgDir
	}
	if out != "" {
		return filepath.Dir(out)
	}
	return ""
}

// writeSVG renders a figure table as an SVG and writes fig<id>.svg:
// Fig 3 (latency vs load) becomes a log-y line chart, everything else a
// grouped bar chart.
func writeSVG(dir, id string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parse := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return v, err == nil
	}
	path := filepath.Join(dir, "fig"+id+".svg")
	if id == "3" {
		l := &plot.Line{Title: t.Title, XLabel: t.Columns[0], YLabel: "latency (cycles)", LogY: true}
		for ci := 1; ci < len(t.Columns); ci++ {
			s := plot.Series{Name: t.Columns[ci]}
			for _, row := range t.Rows {
				x, okX := parse(row[0])
				y, okY := parse(row[ci])
				if okX && okY {
					s.X = append(s.X, x)
					s.Y = append(s.Y, y)
				}
			}
			l.Series = append(l.Series, s)
		}
		return os.WriteFile(path, []byte(l.RenderLine()), 0o644)
	}
	bar := plot.FromTable(t.Title, t.Columns[0], t.Columns, t.Rows, parse)
	return os.WriteFile(path, []byte(bar.RenderBar()), 0o644)
}
