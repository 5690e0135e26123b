// Command fgbsd is the long-running system-selection service: it
// profiles each benchmark suite at most once (lazily, with concurrent
// first requests coalesced into a single profiling run) and then
// answers subsetting, evaluation and system-selection queries over
// HTTP from the shared in-memory profiles, caching repeated results.
//
// Usage:
//
//	fgbsd [flags]
//
// Flags:
//
//	-addr host:port  listen address (default :8093)
//	-suites list     comma-separated suites to serve (default all:
//	                 nas, nr, poly, joint, plus the synthetic syn-*
//	                 suites internal/corpus registers)
//	-preload list    comma-separated suites to profile at startup
//	                 instead of on first request
//	-profiledir dir  the stage store's disk tier: persist built profiles
//	                 as framed <dir>/<key>.art artifacts, named by their
//	                 full content address, reload them on restart and
//	                 serve every one to peers
//	-cachesize N     LRU result-cache capacity in entries (default 256)
//	-stagecache N    in-memory stage artifact store capacity in entries
//	                 (default 512); every pipeline stage — profiles,
//	                 per-K subsets, per-target evaluations — resolves
//	                 through it, so queries and jobs share work
//	-peers list      comma-separated base URLs of peer fgbsd daemons;
//	                 adds a peer tier to the stage store, after the
//	                 -profiledir disk tier, that fetches artifacts from
//	                 their /v1/artifacts/{key} endpoints before
//	                 recomputing
//	-seed N          profiling seed (default 1)
//	-workers N       concurrent measurements per profiling run
//	                 (default GOMAXPROCS)
//	-jobworkers N    concurrently running experiment jobs submitted
//	                 via POST /v1/jobs (default GOMAXPROCS)
//	-jobretention d  how long finished jobs stay pollable (default 15m)
//	-faultprofile p  JSON fault-injection profile applied to every
//	                 measurement, with the robust retry/outlier-rejection
//	                 protocol mounted on top (chaos testing; see the
//	                 README's "Chaos testing" section). Validated before
//	                 the daemon starts; injector and retry counters show
//	                 up in /metricz.
//
// Long experiments run asynchronously through the /v1/jobs API (see
// internal/server); completed job results are persisted under
// <profiledir>/jobs when -profiledir is set.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, in-flight requests get a drain window, and any profiling
// build or experiment job still running is canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fgbs/internal/arch"
	"fgbs/internal/fault"
	"fgbs/internal/measure"
	"fgbs/internal/server"
	"fgbs/internal/stage"
	"fgbs/internal/suites"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgbsd:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fgbsd:", err)
		os.Exit(1)
	}
}

// daemonConfig is the parsed and validated flag set.
type daemonConfig struct {
	addr         string
	serve        []string
	preload      []string
	dir          string
	cacheN       int
	stageCacheN  int
	peers        []string
	seed         uint64
	workers      int
	jobWorkers   int
	jobRetention time.Duration
	// faults is the validated -faultprofile content; nil when the flag
	// is unset (the daemon then measures fault-free, byte-identical to
	// earlier releases).
	faults *fault.Profile
}

// parseFlags validates everything up front: a daemon that dies on its
// first request because of a typo in -suites is strictly worse than
// one that refuses to start.
func parseFlags(args []string) (daemonConfig, error) {
	cfg := daemonConfig{}
	fs := flag.NewFlagSet("fgbsd", flag.ContinueOnError)
	var suiteList, preloadList string
	fs.StringVar(&cfg.addr, "addr", ":8093", "listen address")
	fs.StringVar(&suiteList, "suites", "", "comma-separated suites to serve (default all)")
	fs.StringVar(&preloadList, "preload", "", "comma-separated suites to profile at startup")
	fs.StringVar(&cfg.dir, "profiledir", "", "directory for persisted profiles")
	fs.IntVar(&cfg.cacheN, "cachesize", 256, "LRU result-cache capacity")
	fs.IntVar(&cfg.stageCacheN, "stagecache", 512, "in-memory stage artifact store capacity")
	var peerList string
	fs.StringVar(&peerList, "peers", "", "comma-separated base URLs of peer fgbsd daemons")
	fs.Uint64Var(&cfg.seed, "seed", 1, "profiling seed")
	fs.IntVar(&cfg.workers, "workers", 0, "concurrent measurements per profiling run (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.jobWorkers, "jobworkers", 0, "concurrently running experiment jobs (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.jobRetention, "jobretention", 0, "how long finished jobs stay pollable (0 = 15m)")
	var faultPath string
	fs.StringVar(&faultPath, "faultprofile", "", "JSON fault-injection profile (chaos testing)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.cacheN <= 0 {
		return cfg, fmt.Errorf("-cachesize must be positive, got %d", cfg.cacheN)
	}
	if cfg.stageCacheN <= 0 {
		return cfg, fmt.Errorf("-stagecache must be positive, got %d", cfg.stageCacheN)
	}
	if cfg.jobWorkers < 0 {
		return cfg, fmt.Errorf("-jobworkers must be >= 0, got %d", cfg.jobWorkers)
	}
	if cfg.jobRetention < 0 {
		return cfg, fmt.Errorf("-jobretention must be >= 0, got %v", cfg.jobRetention)
	}
	var err error
	if cfg.serve, err = splitSuites(suiteList, suites.Names()); err != nil {
		return cfg, fmt.Errorf("-suites: %w", err)
	}
	if cfg.preload, err = splitSuites(preloadList, cfg.serve); err != nil {
		return cfg, fmt.Errorf("-preload: %w", err)
	}
	if preloadList == "" {
		cfg.preload = nil
	}
	if faultPath != "" {
		if cfg.faults, err = fault.Load(faultPath); err == nil {
			err = cfg.faults.CheckMachines(arch.All())
		}
		if err != nil {
			return cfg, fmt.Errorf("-faultprofile: %w", err)
		}
	}
	if cfg.peers, err = stage.ParsePeers(peerList); err != nil {
		return cfg, fmt.Errorf("-peers: %w", err)
	}
	return cfg, nil
}

// splitSuites parses a comma-separated suite list, restricted to the
// given valid names; an empty list means all of them.
func splitSuites(list string, valid []string) ([]string, error) {
	if list == "" {
		return valid, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		ok := false
		for _, v := range valid {
			ok = ok || v == name
		}
		if !ok {
			return nil, fmt.Errorf("unknown suite %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// run serves until ctx is canceled, then drains and exits.
func run(ctx context.Context, cfg daemonConfig) error {
	scfg := server.Config{
		Seed:            cfg.seed,
		Workers:         cfg.workers,
		ProfileDir:      cfg.dir,
		ResultCacheSize: cfg.cacheN,
		StageCacheSize:  cfg.stageCacheN,
		Peers:           cfg.peers,
		SuiteNames:      cfg.serve,
		JobWorkers:      cfg.jobWorkers,
		JobRetention:    cfg.jobRetention,
	}
	if cfg.faults != nil {
		inj := fault.NewInjector(cfg.faults)
		rob := measure.New(inj, measure.Config{})
		scfg.Measurer = rob
		scfg.MeasurerKey = cfg.faults.Fingerprint()
		scfg.MeasureStats = func() measure.Stats { return rob.Stats() }
		scfg.FaultStats = func() fault.Stats { return inj.Stats() }
	}
	s := server.New(scfg)
	defer s.Close()
	if cfg.faults != nil {
		fmt.Printf("fgbsd: fault injection active (%d rules, seed %d)\n", len(cfg.faults.Rules), cfg.faults.Seed)
	}

	if len(cfg.preload) > 0 {
		fmt.Printf("fgbsd: preloading %s\n", strings.Join(cfg.preload, ", "))
		if err := s.Warm(cfg.preload); err != nil {
			return err
		}
	}

	// Listen before announcing: with -addr :0 the kernel picks the
	// port, and harnesses (the crash-recovery e2e) learn it from the
	// serving line, which must therefore carry the bound address rather
	// than the flag value.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	// The server goroutine is torn down by httpSrv.Shutdown below, not
	// by observing ctx directly.
	//fgbs:allow goroutineleak joined via httpSrv.Shutdown on ctx cancellation
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("fgbsd: serving %s on %s\n", strings.Join(cfg.serve, ", "), ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("fgbsd: shutting down")
	//fgbs:allow ctxpropagation the graceful drain must outlive the already-canceled signal ctx
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(drain)
}
