// Command gpsd runs GPS continuously: an epoch-driven daemon that
// re-verifies its known services, re-trains on what it sees, and spends a
// recurring probe budget on discovery, so its service inventory tracks a
// churning universe instead of decaying (§3 measures 9% of services gone
// within 10 days).
//
// With -shards N the daemon becomes a shard coordinator: the address
// space is hash-split into N stable partitions, each owned by an
// independent continuous runner with its own model and a 1/N slice of the
// epoch budget; the runners execute every epoch concurrently and their
// inventories merge into the single view the daemon reports. This is the
// in-process model of the paper's horizontal scale-out claim (§5.5).
//
// The same split also runs across processes and hosts. A worker process
// (gpsd worker -listen addr) serves shard epochs over the GPS shard
// transport; a coordinator (gpsd coordinator -workers addr,addr,...)
// dials the fleet, places each shard's seeded state and world spec on a
// worker round-robin, and folds the streamed per-epoch results into the same
// merged view — byte-identical to the in-process run, which CI enforces.
//
// Each epoch the daemon advances the synthetic universe one churn step
// (deterministically derived from -seed and the epoch number), runs one
// continuous-scanning epoch, and — when -checkpoint is set — atomically
// persists its state (fsync before rename, so a crash mid-write can never
// leave a truncated checkpoint). Restarting with the same flags resumes
// from the checkpoint at exactly the state the previous process would
// have had. The checkpoint holds the shards' merged state, not their
// layout, so a restart may pass any -shards: re-sharding is a resume.
//
// With -serve ADDR the daemon additionally mounts the inventory query
// API (internal/serve) on ADDR, in both single-process and coordinator
// modes: at each epoch commit the merged inventory is indexed into an
// immutable snapshot and swapped in atomically, so readers query the
// last committed epoch without ever blocking the scan loop. gpsd serve
// FILE is pure read path: it loads a GPSV inventory file (-inventory
// output) and serves it until SIGINT/SIGTERM.
//
// A serving daemon is also a replication origin: every commit is diffed
// into a per-epoch delta (adds/updates/removes), retained in a bounded
// history (-feed-history) behind GET /v1/watch, and — with -feed ADDR —
// streamed to read replicas over the shard transport. A replica
// (gpsd replica -upstream ADDR -serve ADDR) bootstraps from a full
// snapshot frame, applies deltas as epochs commit, and serves the whole
// /v1 API with responses byte-identical to the origin's; it can chain
// (-feed on a replica re-exports the stream) and re-bootstraps by itself
// when it falls behind the origin's retained history. gpsd watch URL is
// the standalone feed consumer: it follows /v1/watch, folds events into
// a local inventory, and can persist it as a GPSV file.
//
// A coordinator started with -cluster ADDR also accepts workers that
// join after the run began: gpsd worker -join ADDR registers with the
// coordinator, which live-migrates shards (checkpointed state plus the
// partitioned world spec) onto the newcomer at the next epoch boundary.
// The same machinery runs in reverse for -leave (the worker drains its
// shards back into the fleet before exiting). GET /v1/cluster on the
// coordinator's -serve API reports membership, per-shard latency, and
// every migration; POST /v1/cluster/workers/{id}/drain (behind -admin)
// drains a worker remotely.
//
// Usage:
//
//	gpsd [-seed N] [-prefixes N] [-density F] [-seed-fraction F]
//	     [-epochs N] [-budget N] [-reverify F] [-max-stale N] [-shards N]
//	     [-checkpoint FILE] [-inventory FILE] [-interval DUR]
//	     [-parallelism N] [-serve ADDR]
//	gpsd worker -listen ADDR
//	gpsd worker -join ADDR [-name ID] [-leave]
//	gpsd coordinator -workers ADDR,ADDR,... [flags as above]
//	     [-rpc-timeout DUR] [-cluster ADDR] [-admin]
//	gpsd serve FILE -serve ADDR
//	gpsd [flags] -serve ADDR [-feed ADDR] [-feed-history N]
//	gpsd replica -upstream ADDR -serve ADDR [-feed ADDR]
//	gpsd watch URL [-epochs N] [-inventory FILE]
//
// -epochs 0 runs until SIGINT/SIGTERM; the daemon always finishes the
// epoch in flight before exiting, then flushes a final checkpoint and
// the -inventory file and shuts the query API down cleanly, so a served
// daemon restarts without losing the in-flight epoch. With -serve and a
// finite -epochs the daemon keeps serving after its last epoch until
// signalled.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gps"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// daemonFlags is every knob the daemon, coordinator, and worker modes
// share, parsed once in main.
type daemonFlags struct {
	seed       int64
	prefixes   int
	density    float64
	seedFrac   float64
	epochs     int
	budget     uint64
	reverify   float64
	maxStale   int
	shards     int
	checkpoint string
	inventory  string
	interval   time.Duration
	parallel   int

	logJSON     bool
	workerMode  bool
	listen      string
	joinAddr    string
	workerName  string
	leave       bool
	coordinator bool
	workers     string
	cluster     string
	admin       bool
	rpcTimeout  time.Duration
	serve       string
	serveFile   string
	debugAddr   string

	feedAddr    string
	feedHistory int
	replicaMode bool
	upstream    string
	watchURL    string
}

// registerFlags binds every gpsd flag onto fs. One shared set serves
// all modes: the subcommand decides which subset matters.
func registerFlags(fs *flag.FlagSet, f *daemonFlags) {
	fs.Int64Var(&f.seed, "seed", 42, "generator seed; also drives per-epoch churn")
	fs.IntVar(&f.prefixes, "prefixes", 16, "announced /16 blocks in the universe")
	fs.Float64Var(&f.density, "density", 0.03, "fraction of addresses hosting services")
	fs.Float64Var(&f.seedFrac, "seed-fraction", 0.04, "initial seed sample as a fraction of the address space")
	fs.IntVar(&f.epochs, "epochs", 10, "epochs to run (0 = until SIGINT)")
	fs.Uint64Var(&f.budget, "budget", 0, "global per-epoch probe budget, split across shards (0 = unlimited)")
	fs.Float64Var(&f.reverify, "reverify", 0.25, "fraction of each shard's budget reserved for re-verification")
	fs.IntVar(&f.maxStale, "max-stale", 2, "consecutive failed re-verifications before eviction")
	fs.IntVar(&f.shards, "shards", 1, "partition the scan into N hash-split shards")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file; written after every epoch, resumed on start")
	fs.StringVar(&f.inventory, "inventory", "", "write the final merged inventory (canonical bytes) to this file")
	fs.DurationVar(&f.interval, "interval", 0, "wall-clock pause between epochs")
	fs.IntVar(&f.parallel, "parallelism", 0, "per-shard compute parallelism (0 = all cores; 1 = fully deterministic)")

	fs.BoolVar(&f.logJSON, "log-json", false, "emit every log line as one JSON object instead of key=value text")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:7600", "worker mode: address to listen on")
	fs.StringVar(&f.joinAddr, "join", "", "worker mode: join the running coordinator at this -cluster address instead of listening")
	fs.StringVar(&f.workerName, "name", "", "worker mode with -join: worker id to register as (default: coordinator assigns the remote address)")
	fs.BoolVar(&f.leave, "leave", false, "worker mode with -join: on SIGINT/SIGTERM, drain shards back to the fleet before exiting")
	fs.StringVar(&f.workers, "workers", "", "coordinator mode: comma-separated worker addresses")
	fs.StringVar(&f.cluster, "cluster", "", "coordinator mode: accept joining workers on this address (gpsd worker -join)")
	fs.BoolVar(&f.admin, "admin", false, "enable mutating /v1/cluster endpoints on -serve (default: read-only)")
	fs.DurationVar(&f.rpcTimeout, "rpc-timeout", 2*time.Minute, "coordinator mode: per-RPC deadline (turns a wedged worker into an error)")
	fs.StringVar(&f.serve, "serve", "", "serve the inventory query API on this address (e.g. 127.0.0.1:7080) alongside the daemon")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /v1/metricz, /v1/healthz, and /debug/pprof on this address, in every mode")

	fs.StringVar(&f.feedAddr, "feed", "", "serve the replication feed on this address (requires -serve); replicas subscribe here")
	fs.IntVar(&f.feedHistory, "feed-history", 0, "epoch deltas to retain for replicas and /v1/watch (0 = default depth)")
	fs.StringVar(&f.upstream, "upstream", "", "replica mode: origin feed address (the origin's -feed)")
}

// mainLog is the daemon's structured logger: every line carries
// component=gpsd plus the trace id of the epoch in flight, so a slow
// log line can be pulled up as a waterfall in /v1/tracez. Info routes
// to stdout, warnings and errors to stderr.
var mainLog = trace.NewLogger("gpsd")

// parseArgs turns a gpsd command line into a daemonFlags. The first
// argument may be a subcommand (worker, coordinator, replica, watch,
// serve); watch and serve take one positional operand,
// accepted either right after the subcommand or after the flags.
// Everything else parses through the shared flag set.
func parseArgs(args []string, stderr io.Writer) (daemonFlags, error) {
	var f daemonFlags
	fs := flag.NewFlagSet("gpsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	registerFlags(fs, &f)

	sub := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "", "worker", "coordinator", "replica", "watch", "serve":
	default:
		return f, fmt.Errorf("unknown subcommand %q (worker|coordinator|replica|watch|serve)", sub)
	}
	operand := ""
	wantsOperand := sub == "watch" || sub == "serve"
	if wantsOperand && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		operand, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if wantsOperand && operand == "" {
		if operand = fs.Arg(0); operand == "" {
			return f, fmt.Errorf("gpsd %s needs an operand (see gpsd -h)", sub)
		}
	}
	switch sub {
	case "worker":
		f.workerMode = true
	case "coordinator":
		f.coordinator = true
	case "replica":
		f.replicaMode = true
	case "watch":
		f.watchURL = operand
	case "serve":
		f.serveFile = operand
	}
	// Structured logging is live from this point on: the JSON switch is
	// applied before the first line so a log shipper never sees a mixed
	// stream.
	trace.SetLogJSON(f.logJSON)
	return f, nil
}

func main() {
	f, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "gpsd:", err)
		}
		os.Exit(2)
	}
	if f.shards < 1 {
		mainLog.Errorf("-shards must be >= 1")
		os.Exit(2)
	}
	if f.feedAddr != "" && f.serve == "" {
		mainLog.Errorf("-feed needs -serve ADDR (the feed streams what the query API serves)")
		os.Exit(2)
	}
	declareProcessHealth(f)
	startDebugServer(f.debugAddr)

	switch f.role() {
	case "worker":
		os.Exit(runWorker(f))
	case "watch":
		os.Exit(runWatch(f))
	case "replica":
		if f.serve == "" || f.upstream == "" {
			mainLog.Errorf("replica mode needs -upstream ADDR and -serve ADDR")
			os.Exit(2)
		}
		os.Exit(runReplica(f))
	case "file":
		if f.serve == "" {
			mainLog.Errorf("gpsd serve FILE needs -serve ADDR to listen on")
			os.Exit(2)
		}
		os.Exit(runServeFile(f))
	case "coordinator":
		if !f.coordinator || f.workers == "" {
			mainLog.Errorf("coordinator mode needs -workers addr,addr,... (gpsd coordinator -workers ...)")
			os.Exit(2)
		}
		os.Exit(runCoordinator(f))
	}
	os.Exit(runDaemon(f))
}

// role names the mode the flags select: main dispatches on it and
// /v1/healthz reports it, on every listener the process opens.
func (f daemonFlags) role() string {
	switch {
	case f.workerMode:
		return "worker"
	case f.watchURL != "":
		return "watch"
	case f.replicaMode:
		return "replica"
	case f.serveFile != "":
		return "file"
	case f.coordinator || f.workers != "":
		return "coordinator"
	}
	return "origin"
}

// world derives the checkpoint/world-spec identity from the flags.
func (f daemonFlags) world() worldID {
	return worldID{Seed: f.seed, Prefixes: f.prefixes, Density: f.density}
}

// shardConfig derives the coordinator configuration both the in-process
// and the distributed mode run, so the two produce identical epochs.
func (f daemonFlags) shardConfig() shard.Config {
	return shard.Config{
		Shards: f.shards,
		Continuous: continuous.Config{
			Budget:           f.budget,
			ReverifyFraction: f.reverify,
			MaxStale:         f.maxStale,
			Pipeline: gps.Config{
				Workers: f.parallel,
				Seed:    f.seed,
			},
		},
	}
}

// collectSeedSet gathers and filters the initial observation set.
func collectSeedSet(u *netmodel.Universe, f daemonFlags) *gps.Dataset {
	seedSet := gps.CollectSeed(u, f.seedFrac, f.seed^0x5eed)
	seedSet = seedSet.FilterPorts(seedSet.EligiblePorts(2))
	mainLog.Infof("seeded with %d services (%.2f%% sample, %d probes)",
		seedSet.NumServices(), 100*f.seedFrac, seedSet.CollectionProbes)
	return seedSet
}

// logEpoch emits the epoch's one record, after its checkpoint: the
// epoch's counters, its freshness, and its seconds. Shards run
// concurrently, so the phase seconds are those of bound_shard, the shard
// whose epoch took longest (shard.MergeStats): they sum to no more than
// epoch_sec, the coordinator's wall time.
func logEpoch(stats continuous.EpochStats, elapsed, ckpt time.Duration) {
	mainLog.Log(trace.LevelInfo, "epoch complete",
		trace.String("event", "epoch"),
		trace.Int("epoch", stats.Epoch),
		trace.Int("known", stats.KnownSize),
		trace.Int("verified", stats.Verified),
		trace.Int("lost", stats.Lost),
		trace.Int("evicted", stats.Evicted),
		trace.Int("new", stats.NewFound),
		trace.Int("refreshed", stats.Refreshed),
		trace.Int("train_size", stats.TrainSize),
		trace.Int64("reverify_probes", int64(stats.ReverifyProbes)),
		trace.Int64("discovery_probes", int64(stats.DiscoveryProbes)),
		trace.Float("alive_frac", stats.Freshness.AliveFrac()),
		trace.Float("stale_rate", stats.Freshness.StaleRate()),
		trace.Float("reverify_sec", stats.Phases.Reverify.Seconds()),
		trace.Float("retrain_sec", stats.Phases.Retrain.Seconds()),
		trace.Float("discover_sec", stats.Phases.Discover.Seconds()),
		trace.Float("fold_sec", stats.Phases.Fold.Seconds()),
		trace.Int("bound_shard", stats.Phases.Shard),
		trace.Float("checkpoint_sec", ckpt.Seconds()),
		trace.Float("epoch_sec", elapsed.Seconds()))
}

// checkpointSeconds times the atomic checkpoint save, the one epoch cost
// the phase histograms inside the scan layers cannot see.
var checkpointSeconds = telemetry.Default.Histogram("gps_checkpoint_seconds",
	"time to persist the epoch checkpoint (fsync + rename)", nil)

// writeInventoryFile dumps the merged inventory in its canonical byte
// encoding: the artifact the distributed CI gate diffs against the
// in-process run, and what a concurrent `gpsd serve FILE` reads — so it
// is replaced atomically, never written in place.
func writeInventoryFile(path string, inv map[netmodel.Key]*continuous.Entry) error {
	return atomicWriteFile(path, func(w io.Writer) error { return shard.WriteInventory(w, inv) })
}

// warnEmptyShards reports partitions that own no services. A restart
// re-partitions the checkpoint for any -shards, so lowering it works on
// resume too.
func warnEmptyShards(empty []int) {
	if len(empty) == 0 {
		return
	}
	mainLog.Warnf("shards %v own no services — their partitions will never be scanned; lower -shards (or, starting fresh, enlarge -seed-fraction)",
		empty)
}

// notifySignals returns the channel the epoch loops poll between epochs.
func notifySignals() chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// seedOrResume is the start-up sequence both daemon modes share: resume
// from -checkpoint when it holds one — any failure but a missing file is
// fatal, a corrupt or mismatched checkpoint must not be silently
// discarded — and otherwise collect a fresh seed sample from the epoch-0
// universe, which only a fresh start needs. A checkpoint's merged run is
// partitioned for -shards, whatever count wrote it. resume and seed are
// how the mode's coordinator takes either; fleet is the worker count it
// dialed (0 in process), reported against the one the checkpoint
// recorded. A non-zero return is the process exit code.
func seedOrResume(f daemonFlags, world worldID, fleet int, universe func() (*netmodel.Universe, error),
	resume func([]*continuous.State) error, seed func(*gps.Dataset) error) int {
	var run *continuous.State
	var workers int
	err := errNoCheckpoint
	if f.checkpoint != "" {
		run, workers, err = loadCheckpoint(f.checkpoint, world)
	}
	switch {
	case err == nil:
		mainLog.Infof("resuming from %s at epoch %d (%d known services across %d shards)",
			f.checkpoint, run.Epoch, len(run.Known), f.shards)
		if fleet > 0 && workers > 0 && workers != fleet {
			mainLog.Infof("checkpoint was written by a %d-worker fleet; re-homing shards over %d workers",
				workers, fleet)
		}
		err = resume(shard.Partition(run, f.shards))
	case errors.Is(err, errNoCheckpoint):
		var u *netmodel.Universe
		if u, err = universe(); err != nil {
			return 2
		}
		err = seed(collectSeedSet(u, f))
	}
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}
	return 0
}

// exitSuffix is a fleet's share of the exit line: living workers over the
// fleet the run ended with.
func exitSuffix(coord *shard.Coordinator) string {
	if workers := len(coord.WorkerAddrs()); workers > 0 {
		return fmt.Sprintf(" across %d/%d workers", coord.AliveWorkers(), workers)
	}
	return ""
}

// runDaemon is the single-process mode: N shards (or one unsharded
// runner) on in-process executors, driven epoch by epoch against the
// locally simulated universe.
func runDaemon(f daemonFlags) int {
	trace.Default.SetProcess("daemon")
	world := f.world()

	// The same world replica a worker holds, over the whole address space:
	// epoch e's universe is the churn replay UniverseAt already is, so a
	// resumed daemon scans exactly what the interrupted one would have.
	w, err := fullDemoWorld(f, "")
	if err != nil {
		return 2
	}
	u := w.u
	worldLine := fmt.Sprintf("%d hosts, %d services, %d addresses", u.NumHosts(), u.NumServices(), u.SpaceSize())
	if f.shards > 1 {
		worldLine += fmt.Sprintf("; %d shards", f.shards)
	}
	mainLog.Infof("%s", worldLine)

	var coord *shard.Coordinator
	code := seedOrResume(f, world, 0,
		func() (*netmodel.Universe, error) { return u, nil },
		func(states []*continuous.State) (err error) {
			coord, err = shard.ResumeCoordinator(states, f.shardConfig())
			return err
		},
		func(seed *gps.Dataset) error {
			coord = shard.NewCoordinator(seed, f.shardConfig())
			return nil
		})
	if code != 0 {
		return code
	}
	warnEmptyShards(coord.EmptyShards())

	api, err := startServing(f, coord, nil)
	if err != nil {
		mainLog.Errorf("%v", err)
		return 1
	}

	epoch := func() (continuous.EpochStats, error) {
		u, err := w.UniverseAt(coord.EpochNumber() + 1)
		if err != nil {
			return continuous.EpochStats{}, err
		}
		return coord.Epoch(u)
	}
	if code := runEpochs(f, world, coord, epoch, api); code != 0 {
		return code
	}
	return finishDaemon(f, world, coord, api)
}

// runEpochs is the epoch loop both daemon modes share: poll for a
// signal, run one epoch (epoch is where the modes differ: which universe,
// if any, the coordinator's executors are handed), report the worker
// failures it survived, persist the checkpoint, log the epoch's record,
// pause -interval — until -epochs is reached or a signal arrives; a
// daemon that is serving then keeps answering queries at the final epoch
// until signalled. A non-zero return is the process exit code.
func runEpochs(f daemonFlags, world worldID, coord *shard.Coordinator,
	epoch func() (continuous.EpochStats, error), api *inventoryServer) int {
	sig := notifySignals()
	stopped := false
	reported := 0
	for e := coord.EpochNumber() + 1; !stopped && (f.epochs == 0 || e <= f.epochs); e++ {
		select {
		case s := <-sig:
			mainLog.Infof("%v — flushing and stopping cleanly", s)
			stopped = true
			continue
		default:
		}

		start := time.Now()
		stats, err := epoch()
		for _, we := range coord.Failures()[reported:] {
			mainLog.Warnf("%v — shard re-queued", we)
			reported++
		}
		if err != nil {
			mainLog.Errorf("%v", err)
			return 1
		}
		elapsed := time.Since(start)

		var ckpt time.Duration
		if f.checkpoint != "" {
			ckptStart := time.Now()
			if err := saveCheckpoint(f.checkpoint, world, len(coord.WorkerAddrs()), coord.States()); err != nil {
				mainLog.Errorf("checkpoint: %v", err)
				return 1
			}
			ckpt = time.Since(ckptStart)
			checkpointSeconds.Observe(ckpt.Seconds())
		}
		logEpoch(stats, elapsed, ckpt)
		if f.interval > 0 {
			select {
			case s := <-sig:
				mainLog.Infof("%v — flushing and stopping cleanly", s)
				stopped = true
			case <-time.After(f.interval):
			}
		}
	}
	serveUntilSignal(api, sig, stopped)
	return 0
}

// finishDaemon is the clean-exit path both daemon modes share: flush a
// final checkpoint (idempotent — the state is the one the last epoch
// already saved, but a restart must find it even if the epoch loop never
// ran), write the merged -inventory artifact, drain and stop the query
// API, and report. Everything a restart needs is on disk before the
// process exits.
func finishDaemon(f daemonFlags, world worldID, coord *shard.Coordinator, api *inventoryServer) int {
	if f.checkpoint != "" {
		if err := saveCheckpoint(f.checkpoint, world, len(coord.WorkerAddrs()), coord.States()); err != nil {
			mainLog.Errorf("final checkpoint: %v", err)
			return 1
		}
	}
	known, epoch := coord.Inventory()
	if f.inventory != "" {
		if err := writeInventoryFile(f.inventory, known); err != nil {
			mainLog.Errorf("inventory: %v", err)
			return 1
		}
	}
	api.shutdown()
	mainLog.Infof("done after epoch %d; %d services known%s", epoch, len(known), exitSuffix(coord))
	return 0
}
