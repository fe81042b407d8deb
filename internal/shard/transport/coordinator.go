package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gps/internal/continuous"
	"gps/internal/dataset"
	"gps/internal/netmodel"
	"gps/internal/shard"
	"gps/internal/telemetry"
	"gps/internal/trace"
)

// Options tunes the coordinator's client side.
type Options struct {
	// Timeout bounds one RPC round trip, including the worker's epoch
	// compute; 0 selects 2 minutes. This is what turns a wedged worker
	// into a typed error instead of a hang.
	Timeout time.Duration
	// DialTimeout bounds how long Dial waits for each worker to start
	// listening (it retries with backoff, so workers may be launched
	// concurrently with the coordinator); 0 selects 15 seconds.
	DialTimeout time.Duration
	// RebalanceFactor arms the telemetry-driven migration policy: when
	// the hottest worker's summed per-shard EWMA epoch latency exceeds
	// the cluster median by this factor, its slowest shard migrates to
	// the least-loaded worker at the next epoch boundary. 0 (the
	// default) disables the policy; joins and drains still migrate.
	RebalanceFactor float64
	// Logf receives one line per coordinator event; nil discards.
	Logf func(format string, args ...any)
}

func (o *Options) timeout() time.Duration {
	if o == nil || o.Timeout <= 0 {
		return 2 * time.Minute
	}
	return o.Timeout
}

func (o *Options) dialTimeout() time.Duration {
	if o == nil || o.DialTimeout <= 0 {
		return 15 * time.Second
	}
	return o.DialTimeout
}

func (o *Options) rebalanceFactor() float64 {
	if o == nil {
		return 0
	}
	return o.RebalanceFactor
}

func (o *Options) logf(format string, args ...any) {
	if o != nil && o.Logf != nil {
		o.Logf(format, args...)
	}
}

// workerLink is one worker connection — dialed at startup or admitted
// through the join listener. RPCs on a link are strictly sequential
// request/response; concurrency comes from running links in parallel.
// After admission a link is touched only by the epoch-loop thread.
type workerLink struct {
	id     string // cluster identity: the dial address, or the joiner's -name
	addr   string
	conn   net.Conn
	alive  bool
	joined bool // arrived via AcceptJoins, not Dial

	// wantsDrain is set when the worker's epoch result carries the
	// draining flag (worker-initiated leave); draining marks a drain in
	// progress; drained marks a clean departure.
	wantsDrain bool
	draining   bool
	drained    bool

	// shardsGauge is this worker's pre-registered
	// gps_cluster_worker_shards handle: publishStatus runs every epoch,
	// so the labeled lookup happens once per membership, not per epoch.
	shardsGauge *telemetry.Gauge
}

// newWorkerLink builds a live link and registers its per-worker gauges.
func newWorkerLink(id, addr string, conn net.Conn, joined bool) *workerLink {
	return &workerLink{
		id: id, addr: addr, conn: conn, alive: true, joined: joined,
		shardsGauge: newWorkerShardsGauge(id),
	}
}

// rpc performs one framed round trip under the deadline. An msgError
// frame becomes a RemoteError; any transport failure becomes a
// DisconnectError.
func (w *workerLink) rpc(timeout time.Duration, typ uint8, payload []byte, want uint8) ([]byte, error) {
	w.conn.SetDeadline(time.Now().Add(timeout))
	coordFramesSent.Inc()
	coordBytesSent.Add(uint64(len(payload) + frameOverhead))
	if err := writeFrame(w.conn, typ, payload); err != nil {
		var fse *FrameSizeError
		if errors.As(err, &fse) {
			// A local refusal (payload too large), not a link failure.
			return nil, err
		}
		return nil, &DisconnectError{Addr: w.addr, Err: err}
	}
	got, resp, err := readFrame(w.conn)
	if err != nil {
		return nil, &DisconnectError{Addr: w.addr, Err: err}
	}
	coordFramesRecv.Inc()
	coordBytesRecv.Add(uint64(len(resp) + frameOverhead))
	if got == msgError {
		msg, err := decodeError(resp)
		if err != nil {
			return nil, &DisconnectError{Addr: w.addr, Err: err}
		}
		return nil, &RemoteError{Msg: msg}
	}
	if got != want {
		return nil, &DisconnectError{Addr: w.addr, Err: fmt.Errorf("frame type %d in reply, want %d", got, want)}
	}
	return resp, nil
}

// Coordinator drives N shards across remote worker processes, mirroring
// the in-process shard.Coordinator API: Seed or Resume, then Epoch in a
// loop, with States/Inventory folding the per-shard results through the
// same merge code. Shard ownership of addresses is the asndb.ShardOf hash
// (enforced worker-side by the continuous runner's shard filter); shards
// map to workers round-robin, re-queued to survivors when a worker fails.
// The coordinator is not safe for concurrent use.
type Coordinator struct {
	cfg       shard.Config
	worldSpec []byte // caller's base spec; wrapped per worker by placeShard
	opts      *Options

	workers []*workerLink
	assign  []int  // shard → index into workers
	inited  []bool // shard is initialized on its currently assigned worker
	states  []*continuous.State
	budgets []uint64
	hook    shard.CommitHook
	tel     *rpcTelemetry

	failures []*WorkerError

	// epochTrace is the in-flight epoch's root span context; set for
	// the duration of Epoch so maintain-time work (migrations, drains)
	// parents its spans under the epoch that absorbed it. Only the
	// epoch-loop thread touches it.
	epochTrace trace.SpanContext

	// Dynamic membership (cluster.go). Everything below mu is shared
	// with the join listener's goroutines and HTTP handlers; the live
	// fleet above is epoch-loop-thread only.
	joinLis    net.Listener
	migrations []MigrationStatus

	mu       sync.Mutex
	pending  []*workerLink // joined, admitted at the next epoch boundary
	drainReq map[string]bool
	status   ClusterStatus
}

// Dial connects to the worker fleet. Each address is retried with backoff
// until Options.DialTimeout so workers may still be starting; a worker
// that never appears fails the whole Dial (start with the fleet you mean
// to run — shards re-balance onto survivors only after a worker that did
// join dies).
//
// worldSpec is the caller's base world description. The coordinator
// never sends it raw: every placement wraps it with the receiving
// worker's owned-shard set (EncodeWorldSpec), so a worker can
// materialize only the partition of the world its shards scan. Worker
// factories unwrap with DecodeWorldSpec.
func Dial(addrs []string, cfg shard.Config, worldSpec []byte, opts *Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: no worker addresses")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	cfg.Shards = n
	c := &Coordinator{
		cfg:       cfg,
		worldSpec: worldSpec,
		opts:      opts,
		assign:    make([]int, n),
		inited:    make([]bool, n),
		budgets:   shard.SliceBudget(cfg.Continuous.Budget, n),
		tel:       newRPCTelemetry(n),
		drainReq:  make(map[string]bool),
	}
	for _, addr := range addrs {
		conn, err := dialRetry(addr, opts.dialTimeout())
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("transport: dialing worker %s: %w", addr, err)
		}
		if err := openConn(conn, "worker", addr, opts.timeout()); err != nil {
			conn.Close()
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, newWorkerLink(addr, addr, conn, false))
	}
	for s := range c.assign {
		c.assign[s] = s % len(c.workers)
	}
	c.publishStatus()
	return c, nil
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	delay := 50 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(delay).After(deadline) {
			return nil, err
		}
		dialRetries.Inc()
		time.Sleep(delay)
		if delay < time.Second {
			delay *= 2
		}
	}
}

// fatalRPC reports whether an RPC failure is deterministic — a remote
// rejection or a local payload-size refusal that would fail identically
// against any worker — rather than a link failure worth failing over.
func fatalRPC(err error) bool {
	var re *RemoteError
	var fse *FrameSizeError
	return errors.As(err, &re) || errors.As(err, &fse)
}

// shardCfg derives shard s's runner configuration, mirroring the
// in-process coordinator: the global budget is pre-sliced, the shard
// filter pinned.
func (c *Coordinator) shardCfg(s int) continuous.Config {
	sc := c.cfg.Continuous
	sc.Budget = c.budgets[s]
	sc.ShardIndex, sc.ShardCount = s, c.cfg.Shards
	return sc
}

// placeShard puts shard s on worker wi at the coordinator's current
// state for it: the one placement RPC. Seeding, resume, dead-worker
// failover and live migration all land here, because the coordinator owns
// every shard's state and a worker's runner is only a cache of it. The
// world spec is the base spec wrapped with wi's owned-shard set plus s
// (s is not yet assigned to wi when a migration calls), so the worker
// notices the new bytes and builds, extends or rebuilds its partition to
// cover the shard before it acks. tc, when valid, parents the worker's
// adopt span.
//
// The shard counts as placed only once the worker's ack names it; an ack
// for any other shard poisons the link like any protocol violation
// (*DisconnectError, so callers fail over). A RemoteError means the
// healthy worker refused deterministically (bad world spec, undecodable
// state). Nothing but inited[s] is written here: re-pointing assign[s]
// is the caller's move, after this returns nil.
func (c *Coordinator) placeShard(s, wi int, tc trace.SpanContext) error {
	w := c.workers[wi]
	blob, err := shard.EncodeState(c.states[s])
	if err != nil {
		return err
	}
	owned := c.ownedBy(wi)
	if c.assign[s] != wi {
		owned = append(owned, s)
	}
	m := initMsg{
		Shard: s, Cfg: c.shardCfg(s), State: blob, Trace: tc,
		WorldSpec: EncodeWorldSpec(c.worldSpec, c.cfg.Shards, owned),
	}
	resp, err := w.rpc(c.opts.timeout(), msgInit, encodeInit(m), msgInitOK)
	if err != nil {
		return err
	}
	got, err := decodeShardAck(resp)
	if err == nil && got != s {
		err = fmt.Errorf("init ack names shard %d, placed shard %d", got, s)
	}
	if err != nil {
		return &DisconnectError{Addr: w.addr, Err: err}
	}
	c.inited[s] = true
	return nil
}

// ownedBy returns the shards currently assigned to worker index wi.
func (c *Coordinator) ownedBy(wi int) []int {
	var out []int
	for s, w := range c.assign {
		if w == wi {
			out = append(out, s)
		}
	}
	return out
}

// Seed initializes every shard from one seed set, exactly like the
// in-process coordinator: each shard's epoch-0 state is the records its
// partition owns (continuous.New is deterministic), built here, and the
// fleet then starts from those states the way it would from a checkpoint.
// A worker receives only its own shards' states, never the whole seed.
func (c *Coordinator) Seed(seed *dataset.Dataset) error {
	states := make([]*continuous.State, c.cfg.Shards)
	for s := range states {
		states[s] = continuous.New(seed, c.shardCfg(s)).State()
	}
	return c.Resume(states)
}

// Resume initializes every shard from the given states, one per shard in
// shard order, failing over to survivors when a worker dies
// mid-initialization. A RemoteError is not a worker failure — the
// connection is healthy and the request was rejected deterministically,
// so retrying it on every other worker would only tear the fleet down —
// it aborts the initialization instead.
func (c *Coordinator) Resume(states []*continuous.State) error {
	if len(states) != c.cfg.Shards {
		return fmt.Errorf("transport: %d shard states for %d shards", len(states), c.cfg.Shards)
	}
	c.states = states
	for s := range c.assign {
		for {
			w, err := c.liveWorker(s)
			if err != nil {
				return err
			}
			err = c.placeShard(s, c.assign[s], trace.SpanContext{})
			if err == nil {
				break
			}
			if fatalRPC(err) {
				return fmt.Errorf("transport: init shard %d on %s: %w", s, w.addr, err)
			}
			c.workerFailed(s, w, err)
		}
	}
	return nil
}

// liveWorker returns shard s's assigned worker, re-assigning to the next
// living worker (round-robin from the previous owner) if the assignment
// is dead. Draining workers are passed over when any other live worker
// exists — handing a shard to a worker on its way out just migrates it
// twice — but taken as a last resort. With no survivors it returns the
// most recent failure.
func (c *Coordinator) liveWorker(s int) (*workerLink, error) {
	w := c.workers[c.assign[s]]
	if w.alive {
		return w, nil
	}
	for pass := 0; pass < 2; pass++ {
		for off := 1; off <= len(c.workers); off++ {
			i := (c.assign[s] + off) % len(c.workers)
			cand := c.workers[i]
			if !cand.alive {
				continue
			}
			if pass == 0 && (cand.draining || cand.wantsDrain) {
				continue
			}
			c.opts.logf("transport: re-queueing shard %d from dead %s to %s", s, w.addr, cand.addr)
			shardRequeues.Inc()
			c.assign[s] = i
			c.inited[s] = false
			return cand, nil
		}
	}
	if n := len(c.failures); n > 0 {
		return nil, fmt.Errorf("transport: no live worker for shard %d: %w", s, c.failures[n-1])
	}
	return nil, fmt.Errorf("transport: no live worker for shard %d", s)
}

// workerFailed marks a worker dead and records the typed failure.
func (c *Coordinator) workerFailed(s int, w *workerLink, err error) {
	we := &WorkerError{Addr: w.addr, Shard: s, Err: err}
	c.failures = append(c.failures, we)
	workerFailures.Inc()
	w.alive = false
	w.conn.Close()
	c.opts.logf("transport: %v", we)
}

// Epoch runs the next epoch on every shard across the worker fleet:
// workers execute in parallel (their shards sequentially on one
// connection), stream back their post-epoch states, and the merged stats
// fold exactly as in process. A worker failure re-queues its unfinished
// shards to survivors — re-running a shard's epoch elsewhere is safe
// because the epoch is a deterministic function of (state, universe,
// config) and the coordinator still holds the pre-epoch state. A
// RemoteError (the worker is healthy, the request failed — e.g. the
// shard's epoch itself errored) aborts the epoch instead: it would fail
// the same way on every worker, so re-queueing it would only tear the
// fleet down. Epoch returns a *WorkerError only when a shard has nowhere
// left to run.
//
// State commits are all-or-nothing: c.states advances only when every
// shard finished the epoch, so after an error the coordinator still
// holds the consistent pre-epoch layout (checkpointable, retryable).
func (c *Coordinator) Epoch() (continuous.EpochStats, error) {
	if c.states == nil {
		return continuous.EpochStats{}, fmt.Errorf("transport: Epoch before Seed or Resume")
	}
	// The epoch root span opens before maintain so membership work —
	// migrations, drains, admissions — shows up as children of the
	// epoch that absorbed it.
	root := trace.StartSpan(trace.SpanContext{}, "epoch", trace.Int("shards", c.cfg.Shards))
	c.epochTrace = root.Context()
	defer func() { c.epochTrace = trace.SpanContext{} }()
	// The epoch boundary: every queued membership change — admissions,
	// drains, policy migrations — lands here, before any shard starts
	// the epoch, so the fan-out below always sees a settled assignment.
	c.maintain()
	epoch := c.EpochNumber() + 1
	root.SetAttr(trace.Int("epoch", epoch))
	n := c.cfg.Shards
	completed := make(map[int]*continuous.State, n)
	for len(completed) < n {
		// Re-home shards whose worker died (in a previous round or a
		// previous epoch) before fanning out.
		byWorker := make(map[int][]int)
		for s := 0; s < n; s++ {
			if _, ok := completed[s]; ok {
				continue
			}
			if _, err := c.liveWorker(s); err != nil {
				root.FinishErr(err)
				return continuous.EpochStats{}, err
			}
			byWorker[c.assign[s]] = append(byWorker[c.assign[s]], s)
		}

		type outcome struct {
			states map[int]*continuous.State
			failed map[int]error // shard → link failure on this worker
			abort  error         // deterministic failure; no re-queue
		}
		results := make(map[int]*outcome, len(byWorker))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for wi, shards := range byWorker {
			wg.Add(1)
			go func(wi int, shards []int) {
				defer wg.Done()
				out := &outcome{states: make(map[int]*continuous.State), failed: make(map[int]error)}
				w := c.workers[wi]
				for _, s := range shards {
					start := time.Now()
					st, err := c.runShardEpoch(w, s, epoch, root.Context())
					if err == nil {
						d := time.Since(start).Seconds()
						c.tel.shardLat[s].Observe(d)
						c.tel.shardEw[s].Update(d)
					}
					switch {
					case err == nil:
						out.states[s] = st
						continue
					case fatalRPC(err):
						out.abort = fmt.Errorf("transport: epoch %d, shard %d on %s: %w", epoch, s, w.addr, err)
					default:
						// The link is poisoned: every later shard on
						// this worker fails over too.
						for _, rest := range shards[indexOf(shards, s):] {
							out.failed[rest] = err
						}
					}
					break
				}
				mu.Lock()
				results[wi] = out
				mu.Unlock()
			}(wi, shards)
		}
		wg.Wait()

		for wi, out := range results {
			for s, st := range out.states {
				completed[s] = st
			}
			for s, err := range out.failed {
				if c.workers[wi].alive {
					c.workerFailed(s, c.workers[wi], err)
				} else {
					c.failures = append(c.failures, &WorkerError{Addr: c.workers[wi].addr, Shard: s, Err: err})
				}
			}
		}
		for _, out := range results {
			if out.abort != nil {
				// Workers whose shards did complete have advanced past
				// c.states; force a re-init from the retained pre-epoch
				// states so a retried Epoch starts consistent.
				for i := range c.inited {
					c.inited[i] = false
				}
				root.FinishErr(out.abort)
				return continuous.EpochStats{}, out.abort
			}
		}
	}

	stats := make([]continuous.EpochStats, 0, n)
	for s := 0; s < n; s++ {
		c.states[s] = completed[s]
		if st := completed[s]; len(st.History) > 0 {
			stats = append(stats, st.History[len(st.History)-1])
		}
	}
	if c.hook != nil {
		// The commit is all-or-nothing (above), so the hook only ever
		// observes a fully consistent post-epoch layout — exactly like
		// the in-process coordinator's.
		inv, _ := shard.MergeInventories(c.states)
		c.hook(epoch, inv)
	}
	c.publishStatus()
	root.Finish()
	return shard.MergeStats(stats), nil
}

// runShardEpoch initializes the shard on w if needed, runs one epoch, and
// decodes the returned state. The RPC span it opens under parent is the
// trace context shipped to the worker, so the worker's phase spans —
// returned on the result frame and imported below — land directly
// beneath it in the stitched tree.
func (c *Coordinator) runShardEpoch(w *workerLink, s, epoch int, parent trace.SpanContext) (*continuous.State, error) {
	if !c.inited[s] {
		if err := c.placeShard(s, c.assign[s], parent); err != nil {
			return nil, err
		}
	}
	rpcSpan := trace.StartSpan(parent, "rpc.epoch",
		trace.Int("shard", s), trace.String("worker", w.id))
	resp, err := w.rpc(c.opts.timeout(), msgEpoch, encodeEpochReq(s, epoch, rpcSpan.Context()), msgEpochResult)
	if err != nil {
		rpcSpan.FinishErr(err)
		return nil, err
	}
	gotShard, blob, draining, remoteSpans, err := decodeEpochResult(resp)
	if len(remoteSpans) > 0 {
		if recs, derr := trace.DecodeSpans(remoteSpans); derr == nil {
			trace.Default.Import(recs)
		}
	}
	rpcSpan.FinishErr(err)
	if err != nil {
		return nil, err
	}
	if draining && !w.wantsDrain {
		// Worker-initiated leave: the flag rides the result, the drain
		// itself happens at the next epoch boundary (maintain). Safe to
		// set from this worker's fan-out goroutine — each worker's link
		// is owned by exactly one goroutine per epoch, and maintain
		// reads it only after the fan-out joins.
		w.wantsDrain = true
		c.opts.logf("transport: worker %q reports draining; migrating its shards at the next boundary", w.id)
	}
	if gotShard != s {
		return nil, fmt.Errorf("worker answered for shard %d, asked about %d", gotShard, s)
	}
	st, err := shard.DecodeState(blob)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	if st.Epoch != epoch {
		return nil, fmt.Errorf("shard %d state returned at epoch %d, want %d", s, st.Epoch, epoch)
	}
	return st, nil
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

// SetCommitHook registers the hook Epoch invokes after each all-or-
// nothing state commit, mirroring the in-process coordinator; nil
// unregisters. Call it before the epoch loop starts, not concurrently
// with Epoch.
func (c *Coordinator) SetCommitHook(h shard.CommitHook) { c.hook = h }

// EpochNumber returns the last completed epoch (shards advance in
// lockstep).
func (c *Coordinator) EpochNumber() int {
	if len(c.states) == 0 {
		return 0
	}
	return c.states[0].Epoch
}

// States exposes the coordinator's authoritative per-shard states in
// shard order: after every Epoch they mirror the worker-side states
// exactly (workers stream them back), so checkpointing the coordinator
// checkpoints the fleet.
func (c *Coordinator) States() []*continuous.State { return c.states }

// Inventory returns the merged global inventory with cross-shard conflict
// resolution, identical to the in-process coordinator's.
func (c *Coordinator) Inventory() (map[netmodel.Key]*continuous.Entry, int) {
	return shard.MergeInventories(c.states)
}

// EmptyShards returns the indexes of shards with an empty inventory (see
// shard.Coordinator.EmptyShards).
func (c *Coordinator) EmptyShards() []int {
	var out []int
	for i, st := range c.states {
		if len(st.Known) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Assignment returns the current shard → worker-index mapping.
func (c *Coordinator) Assignment() []int {
	out := make([]int, len(c.assign))
	copy(out, c.assign)
	return out
}

// WorkerAddrs returns the dialed worker addresses in worker order.
func (c *Coordinator) WorkerAddrs() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.addr
	}
	return out
}

// AliveWorkers counts workers still serving shards.
func (c *Coordinator) AliveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// Failures returns every worker failure observed so far, in order. Each
// is a *WorkerError naming the worker, the shard it was serving, and the
// underlying cause; a non-empty result with a nil Epoch error means the
// affected shards were re-queued successfully.
func (c *Coordinator) Failures() []*WorkerError { return c.failures }

// Close shuts the fleet down: the join listener stops accepting, then a
// best-effort shutdown frame goes to each living worker — including
// joiners still waiting in the pending set, so a worker that registered
// but was never admitted exits cleanly too — then the connections.
func (c *Coordinator) Close() error {
	if c.joinLis != nil {
		c.joinLis.Close()
	}
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, w := range append(pending, c.workers...) {
		if w.alive {
			w.conn.SetDeadline(time.Now().Add(time.Second))
			writeFrame(w.conn, msgShutdown, nil)
		}
		w.conn.Close()
	}
	return nil
}
