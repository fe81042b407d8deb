package shard

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gps/internal/telemetry"
	"gps/internal/trace"
)

// Membership. Workers die (their shards re-queue to survivors,
// liveWorker), join after the run began (Admit), and drain — asked by an
// operator (RequestDrain) or by the worker itself (the draining flag on an
// epoch result). Joins and drains are *applied* in exactly one place —
// maintain(), at the top of every Epoch — so the assignment only ever
// changes at an epoch boundary. Between boundaries the cluster document
// (Status) is the only thing other goroutines may touch.
//
// A migration is one placement (place in coordinator.go) — what a seeded,
// resumed or failed-over shard gets — and the assignment re-points after
// it returns nil. Any rejection, death, or timeout before that leaves the
// shard exactly where it was: on its donor, whose runner never stopped
// being valid.

// WorkerError is the coordinator-level failure type: which worker failed,
// which shard it was serving or being handed, and why. The coordinator
// re-queues the shard to a surviving worker; Epoch returns a WorkerError
// only when no worker is left to take it.
type WorkerError struct {
	Addr  string
	Shard int
	Err   error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("shard: worker %s (shard %d): %v", e.Addr, e.Shard, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Worker lifecycle states reported in WorkerStatus.State.
const (
	WorkerPending  = "pending"  // joined, admitted at the next epoch boundary
	WorkerAlive    = "alive"    // serving shards
	WorkerDraining = "draining" // drain requested; shards migrating away
	WorkerDrained  = "drained"  // drained cleanly and disconnected
	WorkerDead     = "dead"     // failed; shards were re-queued
)

// WorkerStatus is one worker's row in the cluster document.
type WorkerStatus struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	State  string `json:"state"`
	Joined bool   `json:"joined"` // joined a running coordinator, not part of the starting fleet

	ShardCount int   `json:"shard_count"`
	Shards     []int `json:"shards,omitempty"`
}

// ShardStatus is one shard's epoch-latency summary.
type ShardStatus struct {
	Shard      int     `json:"shard"`
	Worker     string  `json:"worker"`
	Epochs     uint64  `json:"epochs"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// MigrationStatus describes one live migration, completed or in flight.
type MigrationStatus struct {
	Shard   int     `json:"shard"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Reason  string  `json:"reason"` // join | drain
	Epoch   int     `json:"epoch"`  // last committed epoch when it ran
	Seconds float64 `json:"seconds"`
}

// ClusterStatus is the coordinator's live membership document — what
// GET /v1/cluster serves. Every membership event (admission, migration,
// drain, death) rebuilds it.
type ClusterStatus struct {
	Epoch  int `json:"epoch"`
	Shards int `json:"shards"`

	Workers        []WorkerStatus    `json:"workers"`
	ShardLatencies []ShardStatus     `json:"shard_latencies"`
	Migrations     []MigrationStatus `json:"migrations,omitempty"`
	InFlight       *MigrationStatus  `json:"in_flight_migration,omitempty"`
}

// maxMigrationHistory bounds the migration list the document retains.
const maxMigrationHistory = 64

// worker is one member of the fleet: an executor and what the coordinator
// knows about it. Only the epoch-loop thread touches it.
type worker struct {
	id     string // cluster identity: the dial address, or a joiner's name
	addr   string // network address; empty for an in-process executor
	ex     Executor
	joined bool // admitted to a running coordinator, not part of the starting fleet
	// state is WorkerAlive, WorkerDraining once a drain has begun,
	// WorkerDrained or WorkerDead. wantsDrain is set when the worker's
	// epoch result carries the draining flag, ahead of that boundary.
	state      string
	wantsDrain bool

	// shardsGauge is this worker's pre-registered
	// gps_cluster_worker_shards handle: publishStatus runs every epoch,
	// so the labeled lookup happens once per membership, not per epoch.
	shardsGauge *telemetry.Gauge
}

// alive reports whether w still serves shards.
func (w *worker) alive() bool { return w.state == WorkerAlive || w.state == WorkerDraining }

// eligible reports whether w may receive shards: alive and not on its
// way out.
func (w *worker) eligible() bool { return w.state == WorkerAlive && !w.wantsDrain }

// leave takes w out of the fleet and tells its executor.
func (w *worker) leave(state string) {
	w.state = state
	if c, ok := w.ex.(io.Closer); ok {
		c.Close()
	}
}

// Admit adds a worker whose shards run on ex. Before Seed or Resume it is
// part of the starting fleet, over which the shards are dealt round-robin;
// on a running coordinator it is a joiner, which the next Epoch's boundary
// admits and live-migrates shards onto. Epoch-loop thread only.
func (c *Coordinator) Admit(id, addr string, ex Executor) {
	w := &worker{
		id: id, addr: addr, ex: ex, state: WorkerAlive, joined: c.states != nil,
		shardsGauge: newWorkerShardsGauge(id),
	}
	if w.joined {
		c.admitted = append(c.admitted, w)
		return
	}
	c.workers = append(c.workers, w)
	for s := range c.assign {
		c.assign[s] = s % len(c.workers)
	}
	c.publishStatus()
}

// RequestDrain asks the coordinator to drain worker id at the next
// epoch boundary: migrate its shards to the rest of the fleet, then
// release it. Safe for concurrent use (POST
// /v1/cluster/workers/{id}/drain lands here from HTTP goroutines); it
// only records the request — maintain applies it. Draining a worker
// that owns no shards is a clean removal with zero migrations.
func (c *Coordinator) RequestDrain(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range c.status.Workers {
		if ws.ID != id {
			continue
		}
		switch ws.State {
		case WorkerDead, WorkerDrained:
			return fmt.Errorf("shard: worker %q is already %s", id, ws.State)
		}
		c.drainReq[id] = true
		return nil
	}
	return fmt.Errorf("shard: unknown worker %q", id)
}

// Status returns the live cluster document. A document is rebuilt at
// every membership event, never edited, so the copy shares its slices
// with later callers: read them, do not write or append to them.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Assignment returns the current shard → worker-index mapping.
func (c *Coordinator) Assignment() []int {
	return append([]int(nil), c.assign...)
}

// WorkerAddrs returns the fleet's network addresses in worker order (what
// Assignment indexes); in-process executors have none.
func (c *Coordinator) WorkerAddrs() []string {
	var out []string
	for _, w := range c.workers {
		if w.addr != "" {
			out = append(out, w.addr)
		}
	}
	return out
}

// AliveWorkers counts workers still serving shards.
func (c *Coordinator) AliveWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.alive() {
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

// liveWorker returns the index of shard s's assigned worker,
// re-assigning to the next living worker (round-robin from the previous
// owner) if the assignment is dead. Draining workers are passed over when
// any other live worker exists — handing a shard to a worker on its way
// out just migrates it twice — but taken as a last resort. With no
// survivors it returns the most recent failure.
func (c *Coordinator) liveWorker(s int) (int, error) {
	w := c.workers[c.assign[s]]
	if w.alive() {
		return c.assign[s], nil
	}
	for pass := 0; pass < 2; pass++ {
		for off := 1; off <= len(c.workers); off++ {
			i := (c.assign[s] + off) % len(c.workers)
			cand := c.workers[i]
			if !cand.alive() || pass == 0 && !cand.eligible() {
				continue
			}
			c.logf("shard: re-queueing shard %d from dead %s to %s", s, w.id, cand.id)
			shardRequeues.Inc()
			c.assign[s] = i
			c.placed[s] = false
			return i, nil
		}
	}
	if n := len(c.failures); n > 0 {
		return 0, fmt.Errorf("shard: no live worker for shard %d: %w", s, c.failures[n-1])
	}
	return 0, fmt.Errorf("shard: no live worker for shard %d", s)
}

// workerFailed records the typed failure of w while serving or being
// handed shard s and, the first time, declares the worker dead.
func (c *Coordinator) workerFailed(s int, w *worker, err error) {
	we := &WorkerError{Addr: w.addr, Shard: s, Err: err}
	c.failures = append(c.failures, we)
	if !w.alive() {
		return
	}
	workerFailures.Inc()
	w.leave(WorkerDead)
	c.logf("%v", we)
}

// maintain applies every membership change queued since the last epoch
// boundary: admit joiners and drain workers that asked (via the API or
// their epoch-result draining flag). It runs on the epoch-loop thread at
// the top of Epoch — the one place assignments may change — and never
// fails the epoch: a migration that cannot complete leaves its shard on
// the donor and is retried at the next boundary.
func (c *Coordinator) maintain() {
	admitted := c.admitted
	c.admitted = nil
	for _, w := range admitted {
		c.workers = append(c.workers, w)
		clusterJoins.Inc()
		trace.StartSpan(c.epochTrace, "join",
			trace.String("worker", w.id), trace.String("addr", w.addr)).Finish()
		c.logf("shard: admitted worker %q (%s); fleet is %d live", w.id, w.addr, c.AliveWorkers())
	}
	if len(admitted) > 0 {
		c.balanceCounts("join")
	}
	c.drainAll()
	c.publishStatus()
}

// wantsDrainNow reports whether w should drain at this boundary,
// folding the worker-initiated flag with API requests.
func (c *Coordinator) wantsDrainNow(w *worker) bool {
	if w.wantsDrain {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainReq[w.id]
}

// drainAll migrates every draining worker's shards away and removes the
// worker from the fleet. A worker whose shards cannot all be placed
// (no live non-draining target, or every target refused) keeps the
// remainder and stays draining — it is retried at the next boundary
// rather than dropped with shards attached.
func (c *Coordinator) drainAll() {
	for wi, w := range c.workers {
		if !w.alive() || !c.wantsDrainNow(w) {
			continue
		}
		w.state = WorkerDraining
		drainSpan := trace.StartSpan(c.epochTrace, "drain", trace.String("worker", w.id))
		moved, kept := 0, 0
		for s := 0; s < c.cfg.Shards; s++ {
			if c.assign[s] != wi || !w.alive() {
				continue
			}
			if err := c.migrateAnywhere(s, "drain"); err != nil {
				c.logf("shard: drain %q: shard %d stays: %v", w.id, s, err)
				kept++
			} else {
				moved++
			}
		}
		drainSpan.SetAttr(trace.Int("moved", moved), trace.Int("kept", kept))
		drainSpan.Finish()
		if kept > 0 || !w.alive() {
			continue
		}
		// All shards placed (or there were none): release it cleanly.
		w.leave(WorkerDrained)
		clusterDrains.Inc()
		c.mu.Lock()
		delete(c.drainReq, w.id)
		c.mu.Unlock()
		c.logf("shard: drained worker %q (%d shards migrated)", w.id, moved)
	}
}

// migrateAnywhere migrates shard s to the least-loaded eligible target,
// falling back through the remaining targets if one refuses or dies.
func (c *Coordinator) migrateAnywhere(s int, reason string) error {
	var last error
	for _, to := range c.migrationTargets(s) {
		if err := c.migrate(s, to, reason); err != nil {
			last = err
			continue
		}
		return nil
	}
	if last == nil {
		last = fmt.Errorf("shard: no eligible migration target for shard %d", s)
	}
	return last
}

// shardCounts tallies the current assignment: worker index → shards owned.
func (c *Coordinator) shardCounts() map[int]int {
	counts := make(map[int]int)
	for _, wi := range c.assign {
		counts[wi]++
	}
	return counts
}

// migrationTargets returns eligible recipient worker indexes — not the
// current owner — least-loaded (by shard count, ties to lower index)
// first.
func (c *Coordinator) migrationTargets(s int) []int {
	counts := c.shardCounts()
	var out []int
	for wi, w := range c.workers {
		if w.eligible() && wi != c.assign[s] {
			out = append(out, wi)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if counts[out[a]] != counts[out[b]] {
			return counts[out[a]] < counts[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}

// balanceCounts levels per-worker shard counts after admissions: while
// the spread between the fullest and emptiest eligible worker exceeds
// one shard, migrate the fullest worker's highest shard to the
// emptiest. On a join this is what moves load onto the new worker;
// the loop is bounded by the shard count and stops at the first
// migration failure (retried at the next boundary).
func (c *Coordinator) balanceCounts(reason string) {
	for guard := 0; guard < c.cfg.Shards; guard++ {
		counts := c.shardCounts()
		maxW, minW := -1, -1
		for wi, w := range c.workers {
			if !w.eligible() {
				continue
			}
			if maxW == -1 || counts[wi] > counts[maxW] {
				maxW = wi
			}
			if minW == -1 || counts[wi] < counts[minW] {
				minW = wi
			}
		}
		if maxW == -1 || minW == -1 || counts[maxW]-counts[minW] <= 1 {
			return
		}
		owned := c.ownedBy(maxW)
		moved := owned[len(owned)-1]
		if err := c.migrate(moved, minW, reason); err != nil {
			c.logf("shard: balance: shard %d stays on %q: %v",
				moved, c.workers[maxW].id, err)
			return
		}
	}
}

// migrate live-migrates shard s to worker index `to`: place it there,
// and re-point the assignment only after the placement lands. Every
// failure path leaves the shard on its donor: a refusal is counted and
// returned; a link failure additionally marks the recipient dead,
// exactly as if it had died serving an epoch.
func (c *Coordinator) migrate(s, to int, reason string) error {
	w := c.workers[to]
	from := c.workers[c.assign[s]]
	start := time.Now()
	// The migration span parents under the in-flight epoch (migrations
	// land at epoch boundaries, inside Epoch). Its context rides the
	// placement so the recipient's adopt span joins it.
	migSpan := trace.StartSpan(c.epochTrace, "migrate",
		trace.Int("shard", s), trace.String("from", from.id),
		trace.String("to", w.id), trace.String("reason", reason))
	c.setInFlight(&MigrationStatus{
		Shard: s, From: from.id, To: w.id,
		Reason: reason, Epoch: c.EpochNumber(),
	})
	defer c.setInFlight(nil)

	if err := c.place(s, to, migSpan.Context()); err != nil {
		err = fmt.Errorf("shard: shard %d placement on %q: %w", s, w.id, err)
		migrationRejects.Inc()
		if !refused(err) {
			c.workerFailed(s, w, err)
		}
		migSpan.FinishErr(err)
		return err
	}
	c.assign[s] = to
	sec := time.Since(start).Seconds()
	migrationSeconds.Observe(sec)
	migrations[reason].Inc()
	c.recordMigration(MigrationStatus{
		Shard: s, From: from.id, To: w.id,
		Reason: reason, Epoch: c.EpochNumber(), Seconds: sec,
	})
	c.logf("shard: migrated shard %d from %q to %q (%s, %.3fs)",
		s, from.id, w.id, reason, sec)
	migSpan.Finish()
	return nil
}

func (c *Coordinator) setInFlight(m *MigrationStatus) {
	c.mu.Lock()
	c.status.InFlight = m
	c.mu.Unlock()
}

// recordMigration appends to the document's migration log, on a fresh
// slice so documents already handed out stay as they were.
func (c *Coordinator) recordMigration(m MigrationStatus) {
	c.mu.Lock()
	log := append(c.status.Migrations[:len(c.status.Migrations):len(c.status.Migrations)], m)
	if len(log) > maxMigrationHistory {
		log = log[len(log)-maxMigrationHistory:]
	}
	c.status.Migrations = log
	c.mu.Unlock()
}

// publishStatus rebuilds the cluster document from the live fleet. It
// runs on the epoch-loop thread (the only writer of workers/assign)
// and swaps the document under the mutex for concurrent readers.
func (c *Coordinator) publishStatus() {
	doc := ClusterStatus{Epoch: c.EpochNumber(), Shards: c.cfg.Shards}
	alive, draining := 0, 0
	for wi, w := range c.workers {
		ws := WorkerStatus{ID: w.id, Addr: w.addr, Joined: w.joined, State: w.state}
		if w.alive() && w.wantsDrain {
			ws.State = WorkerDraining
		}
		switch ws.State {
		case WorkerAlive:
			alive++
		case WorkerDraining:
			draining++
		}
		if w.alive() {
			ws.Shards = c.ownedBy(wi)
			ws.ShardCount = len(ws.Shards)
		}
		w.shardsGauge.Set(float64(ws.ShardCount))
		doc.Workers = append(doc.Workers, ws)
	}
	for s := 0; s < c.cfg.Shards; s++ {
		doc.ShardLatencies = append(doc.ShardLatencies, ShardStatus{
			Shard:      s,
			Worker:     c.workers[c.assign[s]].id,
			Epochs:     c.tel.shardLat[s].Count(),
			P50Seconds: c.tel.shardLat[s].P50(),
			P99Seconds: c.tel.shardLat[s].P99(),
		})
	}
	clusterWorkersAlive.Set(float64(alive))
	clusterWorkersDraining.Set(float64(draining))

	c.mu.Lock()
	doc.Migrations, doc.InFlight = c.status.Migrations, c.status.InFlight
	c.status = doc
	c.mu.Unlock()
}
