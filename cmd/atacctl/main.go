// Command atacctl is the client for the atacd simulation daemon.
//
// Usage:
//
//	atacctl [-addr http://localhost:8347] [-retries N] <command> [flags]
//
//	submit  -bench radix -cores 16 [-net atac+] [-wait]   submit a job
//	status  [-id ID]                                      one job, or all
//	watch   -id ID                                        stream progress (SSE)
//	result  -id ID [-wait]                                fetch the result JSON
//	health                                                daemon /healthz
//
// submit -wait is the one-shot form: submit, stream progress to stderr,
// print the result JSON to stdout — the curlable equivalent of running
// atacsim remotely.
//
// The client is resilient by default (serve.Client): transient transport
// failures — a daemon being SIGKILLed and restarted mid-request, a proxy
// hiccup, a drain window — are retried with capped exponential backoff
// and deterministic jitter; submissions are idempotent (the run hash is
// the job identity, so a re-submit coalesces); and the SSE watch stream
// reconnects with Last-Event-ID, so a daemon restart mid--wait is
// invisible. 429 responses honor the server's Retry-After hint.
//
// Against a cluster, pass every node via -endpoints: reads hedge across
// them (a job lives on the node executing it), the watch stream rotates
// to a surviving node if its first one dies, and submit -wait resubmits
// the spec automatically when the whole cluster disowns the job (same
// run hash — the survivors serve the cached result or rerun it once).
//
// Exit codes:
//
//	0  success
//	1  transport or usage-independent error (after all retries)
//	2  usage error
//	3  the job itself terminally failed (the daemon is healthy)
//	5  the daemon's queue stayed full through every retry (shed load)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/version"
)

// Process exit codes (see the command comment).
const (
	exitOK        = 0
	exitErr       = 1
	exitUsage     = 2
	exitJobFailed = 3
	exitQueueFull = 5
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("atacctl: ")
	os.Exit(run())
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: atacctl [-addr URL] [-retries N] {submit|status|watch|result|health} [flags]")
	flag.PrintDefaults()
}

func run() int {
	addr := flag.String("addr", "http://localhost:8347", "atacd base URL")
	endpoints := flag.String("endpoints", "", "comma-separated additional atacd base URLs (cluster peers); reads hedge across them")
	retries := flag.Int("retries", 8, "transient-failure retries per request (-1 disables)")
	var f experiments.Flags
	f.Bind(flag.CommandLine, "q", "version")
	flag.Usage = usage
	flag.Parse()
	if f.Version {
		fmt.Println(version.String())
		return exitOK
	}
	if flag.NArg() < 1 {
		usage()
		return exitUsage
	}
	c := &serve.Client{
		Base:    strings.TrimRight(*addr, "/"),
		Retries: *retries,
		Logf:    log.Printf,
	}
	for _, e := range strings.Split(*endpoints, ",") {
		if e = strings.TrimSpace(e); e != "" {
			c.Endpoints = append(c.Endpoints, e)
		}
	}
	if f.Quiet {
		c.Logf = nil
	}
	var err error
	switch cmd := flag.Arg(0); cmd {
	case "submit":
		err = submit(c, flag.Args()[1:])
	case "status":
		err = status(c, flag.Args()[1:])
	case "watch":
		err = watch(c, flag.Args()[1:])
	case "result":
		err = result(c, flag.Args()[1:])
	case "health":
		err = health(c)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
		return exitUsage
	}
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, serve.ErrQueueFull):
		log.Print(err)
		return exitQueueFull
	case errors.Is(err, serve.ErrJobFailed):
		log.Print(err)
		return exitJobFailed
	default:
		log.Print(err)
		return exitErr
	}
}

func printJSON(v any) {
	out, _ := json.MarshalIndent(v, "", "  ")
	fmt.Println(string(out))
}

// parseSubmit reads submit's flags into the job spec and the -wait switch.
func parseSubmit(args []string) (serve.JobSpec, bool) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: atacctl submit [flags]; zero and empty machine flags take the daemon's -cores/-seed/-tech/-optics, else atacsim's defaults")
		fs.PrintDefaults()
	}
	var f experiments.Flags
	f.Bind(fs, "net", "cores", "sharers", "coherence", "flit", "rthres", "hybrid-radius",
		"tech", "optics", "seed")
	bench := fs.String("bench", "radix", "benchmark name, or a synth:... pseudo-benchmark")
	wait := fs.Bool("wait", false, "stream progress to stderr and print the result JSON")
	fs.Parse(args)
	return serve.JobSpec{Bench: *bench, Geometry: f.Geometry}, *wait
}

func submit(c *serve.Client, args []string) error {
	spec, wait := parseSubmit(args)
	st, err := c.Submit(spec)
	if err != nil {
		return err
	}
	if !wait {
		printJSON(st)
		return nil
	}
	// A job can be lost mid--wait if the node executing it dies before
	// any replica holds the result. Submission is idempotent (the run
	// hash is the identity), so the recovery is to resubmit the same spec
	// — a surviving node serves the cached result or reruns it once.
	for attempt := 0; ; attempt++ {
		fmt.Fprintf(os.Stderr, "job %s (%s on %s): %s\n", st.ID, st.Bench, st.Config, st.State)
		// The watch stream survives daemon restarts (Last-Event-ID
		// reconnection); if it still dies, fall through to the result poll,
		// which retries independently — the job is durable server-side.
		_, werr := c.Watch(st.ID, os.Stderr)
		if werr != nil && !serve.IsTransient(werr) && !errors.Is(werr, serve.ErrJobLost) {
			return werr
		}
		body, rerr := c.Result(st.ID, true)
		if rerr == nil {
			_, err = os.Stdout.Write(body)
			return err
		}
		if !errors.Is(rerr, serve.ErrJobLost) || attempt >= 2 {
			return rerr
		}
		fmt.Fprintf(os.Stderr, "job %s lost (its node died); resubmitting the spec\n", st.ID)
		if st, err = c.Submit(spec); err != nil {
			return err
		}
	}
}

func status(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	id := fs.String("id", "", "job ID (empty: list all jobs)")
	fs.Parse(args)
	if *id == "" {
		all, err := c.List()
		if err != nil {
			return err
		}
		printJSON(all)
		return nil
	}
	st, err := c.Status(*id)
	if err != nil {
		return err
	}
	printJSON(st)
	return nil
}

func watch(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	id := fs.String("id", "", "job ID")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("watch: missing -id")
	}
	state, err := c.Watch(*id, os.Stdout)
	if err != nil {
		return err
	}
	if state == serve.StateFailed {
		return fmt.Errorf("%w (see stream for details)", serve.ErrJobFailed)
	}
	return nil
}

func result(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	id := fs.String("id", "", "job ID")
	wait := fs.Bool("wait", false, "poll until the job completes")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("result: missing -id")
	}
	body, err := c.Result(*id, *wait)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(body)
	return err
}

func health(c *serve.Client) error {
	h, _, err := c.Health()
	if err != nil {
		return err
	}
	printJSON(h)
	return nil
}
