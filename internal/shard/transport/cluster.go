package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"gps/internal/trace"
)

// Dynamic membership: the coordinator half of -join/-leave.
//
// A fleet used to be fixed at Dial: workers that died lost their shards
// to survivors, but nothing could ever take load back. This file makes
// membership elastic. Workers register on a join listener (AcceptJoins)
// and wait in a pending set; an operator or the worker itself can ask
// for a drain (RequestDrain, or the draining flag on epoch results).
// All of it is *applied* in exactly one place — maintain(), called at
// the top of every Epoch — so the assignment only ever changes at an
// epoch boundary, the same all-or-nothing point the dead-worker
// re-queue path uses. Between boundaries the cluster document
// (Status) is the only thing other goroutines may touch, and it is a
// copy under a mutex.
//
// A migration is one placement (placeShard in coordinator.go): the
// recipient gets the same msgInit a seeded, resumed or failed-over
// shard gets — its prospective world spec (its owned partition plus the
// migrating shard) and the coordinator's copy of the shard's state —
// builds or extends that partition, resumes a runner, and acks. The
// assignment re-points after that one ack. Any rejection, death, or
// timeout before it leaves the shard exactly where it was — on its
// donor, whose runner never stopped being valid.

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
	Joined bool   `json:"joined"` // arrived via the join listener, not Dial

	ShardCount int   `json:"shard_count"`
	Shards     []int `json:"shards,omitempty"`

	// LoadEWMASeconds sums the EWMA epoch latencies of the worker's
	// shards — the load signal the rebalance policy compares against
	// the cluster median.
	LoadEWMASeconds float64 `json:"load_ewma_seconds"`
}

// ShardStatus is one shard's epoch-latency summary.
type ShardStatus struct {
	Shard       int     `json:"shard"`
	Worker      string  `json:"worker"`
	Epochs      uint64  `json:"epochs"`
	EWMASeconds float64 `json:"ewma_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

// MigrationStatus describes one live migration, completed or in flight.
type MigrationStatus struct {
	Shard   int     `json:"shard"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Reason  string  `json:"reason"` // join | drain | rebalance
	Epoch   int     `json:"epoch"`  // last committed epoch when it ran
	Seconds float64 `json:"seconds"`
}

// ClusterStatus is the coordinator's live membership document — what
// GET /v1/cluster serves. Every membership event (join, admission,
// migration, drain, death) rebuilds it.
type ClusterStatus struct {
	Epoch           int     `json:"epoch"`
	Shards          int     `json:"shards"`
	RebalanceFactor float64 `json:"rebalance_factor"`

	Workers        []WorkerStatus    `json:"workers"`
	ShardLatencies []ShardStatus     `json:"shard_latencies"`
	Migrations     []MigrationStatus `json:"migrations,omitempty"`
	InFlight       *MigrationStatus  `json:"in_flight_migration,omitempty"`
}

// maxMigrationHistory bounds the migration list the document retains.
const maxMigrationHistory = 64

// AcceptJoins starts admitting joining workers on lis, which the
// coordinator owns from here on (Close closes it). Each accepted
// connection handshakes, registers with msgJoin, and parks in the
// pending set; the next Epoch admits it and live-migrates shards onto
// it. Version-skewed or malformed joiners are rejected with a typed
// error on their side of the wire and a log line on ours — the
// listener keeps accepting.
func (c *Coordinator) AcceptJoins(lis net.Listener) {
	c.joinLis = lis
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					c.opts.logf("transport: join listener: %v", err)
				}
				return
			}
			go c.handleJoin(conn)
		}
	}()
}

// handleJoin registers one joining worker. It runs concurrently with
// the epoch loop and touches only mutex-guarded state (the pending set
// and the published document) — never the live fleet.
func (c *Coordinator) handleJoin(conn net.Conn) {
	addr := conn.RemoteAddr().String()
	reject := func(why error) {
		clusterJoinRejects.Inc()
		c.opts.logf("transport: join from %s rejected: %v", addr, why)
		conn.Close()
	}
	if err := openConn(conn, "joining worker", addr, c.opts.dialTimeout()); err != nil {
		// The usual failure here is version skew: an old worker dialed
		// a new cluster listener (or a fuzzer dialed anything). Our
		// preamble already went out, so the peer holds a bad-version
		// error of its own; we log, count, and keep accepting.
		reject(err)
		return
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		reject(err)
		return
	}
	if typ != msgJoin {
		reject(fmt.Errorf("frame type %d before registration, want %d", typ, msgJoin))
		return
	}
	m, err := decodeJoin(payload)
	if err != nil {
		reject(err)
		return
	}
	if m.ID == "" {
		m.ID = addr
	}

	c.mu.Lock()
	taken := false
	for _, ws := range c.status.Workers {
		if ws.ID == m.ID && ws.State != WorkerDead && ws.State != WorkerDrained {
			taken = true
			break
		}
	}
	if !taken {
		for _, p := range c.pending {
			if p.id == m.ID {
				taken = true
				break
			}
		}
	}
	if taken {
		c.mu.Unlock()
		writeFrame(conn, msgError, encodeError(fmt.Sprintf("worker id %q is already in the fleet", m.ID)))
		reject(fmt.Errorf("worker id %q already taken", m.ID))
		return
	}
	w := newWorkerLink(m.ID, addr, conn, true)
	c.pending = append(c.pending, w)
	clusterWorkersPending.Set(float64(len(c.pending)))
	c.mu.Unlock()

	if err := writeFrame(conn, msgJoinOK, nil); err != nil {
		c.opts.logf("transport: join from %s: %v", addr, err)
		c.removePending(w)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{}) // per-RPC deadlines take over after admission
	c.opts.logf("transport: worker %q (%s) joined; admitting at the next epoch boundary", m.ID, addr)
}

// removePending drops a registration that failed before admission.
func (c *Coordinator) removePending(w *workerLink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range c.pending {
		if p == w {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	clusterWorkersPending.Set(float64(len(c.pending)))
}

// RequestDrain asks the coordinator to drain worker id at the next
// epoch boundary: migrate its shards to the rest of the fleet, then
// disconnect it. Safe for concurrent use (POST
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
			return fmt.Errorf("transport: worker %q is already %s", id, ws.State)
		}
		c.drainReq[id] = true
		return nil
	}
	for _, p := range c.pending {
		if p.id == id {
			c.drainReq[id] = true
			return nil
		}
	}
	return fmt.Errorf("transport: unknown worker %q", id)
}

// Status returns a copy of the live cluster document. Workers still in
// the pending set are folded in here (state "pending") rather than at
// publish time, so a join is visible the moment it registers — not one
// epoch later.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.status
	out.Workers = append([]WorkerStatus(nil), c.status.Workers...)
	for i := range out.Workers {
		out.Workers[i].Shards = append([]int(nil), c.status.Workers[i].Shards...)
	}
	for _, p := range c.pending {
		out.Workers = append(out.Workers, WorkerStatus{
			ID: p.id, Addr: p.addr, State: WorkerPending, Joined: true,
		})
	}
	out.ShardLatencies = append([]ShardStatus(nil), c.status.ShardLatencies...)
	out.Migrations = append([]MigrationStatus(nil), c.status.Migrations...)
	if c.status.InFlight != nil {
		in := *c.status.InFlight
		out.InFlight = &in
	}
	return out
}

// maintain applies every membership change queued since the last epoch
// boundary: admit pending workers, drain workers that asked (via the
// API or their epoch-result draining flag), and run the rebalance
// policy. It runs on the epoch-loop thread at the top of Epoch — the
// one place assignments may change — and never fails the epoch: a
// migration that cannot complete leaves its shard on the donor and is
// retried at the next boundary.
func (c *Coordinator) maintain() {
	c.mu.Lock()
	admitted := c.pending
	c.pending = nil
	clusterWorkersPending.Set(0)
	c.mu.Unlock()

	for _, w := range admitted {
		c.workers = append(c.workers, w)
		clusterJoins.Inc()
		trace.StartSpan(c.epochTrace, "join",
			trace.String("worker", w.id), trace.String("addr", w.addr)).Finish()
		c.opts.logf("transport: admitted worker %q (%s); fleet is %d live", w.id, w.addr, c.AliveWorkers())
	}
	if len(admitted) > 0 {
		c.balanceCounts("join")
	}
	c.drainAll()
	c.rebalanceOnce()
	c.publishStatus()
}

// wantsDrainNow reports whether w should drain at this boundary,
// folding the worker-initiated flag with API requests.
func (c *Coordinator) wantsDrainNow(w *workerLink) bool {
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
		if !w.alive || w.drained || !c.wantsDrainNow(w) {
			continue
		}
		w.draining = true
		drainSpan := trace.StartSpan(c.epochTrace, "drain", trace.String("worker", w.id))
		moved, kept := 0, 0
		for s := 0; s < c.cfg.Shards; s++ {
			if c.assign[s] != wi || !w.alive {
				continue
			}
			if err := c.migrateAnywhere(s, "drain"); err != nil {
				c.opts.logf("transport: drain %q: shard %d stays: %v", w.id, s, err)
				kept++
			} else {
				moved++
			}
		}
		drainSpan.SetAttr(trace.Int("moved", moved), trace.Int("kept", kept))
		drainSpan.Finish()
		if kept > 0 || !w.alive {
			continue
		}
		// All shards placed (or there were none): disconnect cleanly.
		w.conn.SetDeadline(time.Now().Add(time.Second))
		writeFrame(w.conn, msgShutdown, nil)
		w.conn.Close()
		w.alive = false
		w.drained = true
		clusterDrains.Inc()
		c.mu.Lock()
		delete(c.drainReq, w.id)
		c.mu.Unlock()
		c.opts.logf("transport: drained worker %q (%d shards migrated)", w.id, moved)
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
		last = fmt.Errorf("transport: no eligible migration target for shard %d", s)
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

// migrationTargets returns eligible recipient worker indexes — alive,
// not draining, not the current owner — least-loaded (by shard count,
// ties to lower index) first.
func (c *Coordinator) migrationTargets(s int) []int {
	counts := c.shardCounts()
	var out []int
	for wi, w := range c.workers {
		if !w.alive || w.draining || w.wantsDrain || wi == c.assign[s] {
			continue
		}
		out = append(out, wi)
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
			if !w.alive || w.draining || w.wantsDrain {
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
		moved := -1
		for s := c.cfg.Shards - 1; s >= 0; s-- {
			if c.assign[s] == maxW {
				moved = s
				break
			}
		}
		if moved == -1 {
			return
		}
		if err := c.migrate(moved, minW, reason); err != nil {
			c.opts.logf("transport: balance: shard %d stays on %q: %v",
				moved, c.workers[maxW].id, err)
			return
		}
	}
}

// rebalanceOnce is the telemetry-driven policy: when the hottest
// worker's load (the sum of its shards' EWMA epoch latencies) exceeds
// the cluster median by Options.RebalanceFactor, its slowest shard
// migrates to the least-loaded worker. At most one migration per
// boundary — the EWMAs need an epoch on the new layout before the
// signal means anything again. Factor 0 disables the policy.
func (c *Coordinator) rebalanceOnce() {
	factor := c.opts.rebalanceFactor()
	if factor <= 0 {
		return
	}
	loads := make(map[int]float64)
	var eligible []int
	for wi, w := range c.workers {
		if w.alive && !w.draining && !w.wantsDrain {
			eligible = append(eligible, wi)
			loads[wi] = 0
		}
	}
	if len(eligible) < 2 {
		return
	}
	for s, wi := range c.assign {
		if _, ok := loads[wi]; ok {
			loads[wi] += c.tel.shardEw[s].Value()
		}
	}
	sorted := append([]int(nil), eligible...)
	sort.Slice(sorted, func(a, b int) bool { return loads[sorted[a]] < loads[sorted[b]] })
	median := loads[sorted[len(sorted)/2]]
	hot, cold := sorted[len(sorted)-1], sorted[0]
	if median <= 0 || loads[hot] <= factor*median || hot == cold {
		return
	}
	// Move the hot worker's slowest shard — but only if it keeps at
	// least one (moving a 1-shard worker's only shard just relocates
	// the hotspot).
	slowest, slowLat, owned := -1, 0.0, 0
	for s, wi := range c.assign {
		if wi != hot {
			continue
		}
		owned++
		if lat := c.tel.shardEw[s].Value(); slowest == -1 || lat > slowLat {
			slowest, slowLat = s, lat
		}
	}
	if owned < 2 || slowest == -1 {
		return
	}
	c.opts.logf("transport: rebalance: worker %q load %.3fs > %.1f× median %.3fs; migrating shard %d to %q",
		c.workers[hot].id, loads[hot], factor, median, slowest, c.workers[cold].id)
	if err := c.migrate(slowest, cold, "rebalance"); err != nil {
		c.opts.logf("transport: rebalance: %v", err)
	}
}

// migrate live-migrates shard s to worker index `to`: place it there,
// and re-point the assignment only after the recipient's ack. Every
// failure path leaves the shard on its donor: a rejection (RemoteError)
// is counted and returned; a link failure additionally marks the
// recipient dead, exactly as if it had died serving an epoch.
func (c *Coordinator) migrate(s, to int, reason string) error {
	w := c.workers[to]
	from := c.workers[c.assign[s]]
	start := time.Now()
	// The migration span parents under the in-flight epoch when one is
	// open (migrations land at epoch boundaries, inside Epoch); a
	// boundary-less migration roots its own trace. Its context rides the
	// placement so the recipient's adopt span joins it.
	migSpan := trace.StartSpan(c.epochTrace, "migrate",
		trace.Int("shard", s), trace.String("from", from.id),
		trace.String("to", w.id), trace.String("reason", reason))
	c.setInFlight(&MigrationStatus{
		Shard: s, From: from.id, To: w.id,
		Reason: reason, Epoch: c.EpochNumber(),
	})
	defer c.setInFlight(nil)

	if err := c.placeShard(s, to, migSpan.Context()); err != nil {
		err = fmt.Errorf("transport: shard %d placement on %q: %w", s, w.id, err)
		migrationRejects.Inc()
		if !fatalRPC(err) {
			c.workerFailed(s, w, err)
		}
		migSpan.FinishErr(err)
		return err
	}
	c.assign[s] = to
	sec := time.Since(start).Seconds()
	migrationSeconds.Observe(sec)
	switch reason {
	case "join":
		migrationsJoin.Inc()
	case "drain":
		migrationsDrain.Inc()
	default:
		migrationsRebalance.Inc()
	}
	c.recordMigration(MigrationStatus{
		Shard: s, From: from.id, To: w.id,
		Reason: reason, Epoch: c.EpochNumber(), Seconds: sec,
	})
	c.opts.logf("transport: migrated shard %d from %q to %q (%s, %.3fs)",
		s, from.id, w.id, reason, sec)
	migSpan.Finish()
	return nil
}

func (c *Coordinator) setInFlight(m *MigrationStatus) {
	c.mu.Lock()
	c.status.InFlight = m
	c.mu.Unlock()
}

func (c *Coordinator) recordMigration(m MigrationStatus) {
	c.mu.Lock()
	c.migrations = append(c.migrations, m)
	if len(c.migrations) > maxMigrationHistory {
		c.migrations = c.migrations[len(c.migrations)-maxMigrationHistory:]
	}
	c.mu.Unlock()
}

// publishStatus rebuilds the cluster document from the live fleet. It
// runs on the epoch-loop thread (the only writer of workers/assign)
// and swaps the document under the mutex for concurrent readers.
func (c *Coordinator) publishStatus() {
	doc := ClusterStatus{
		Epoch:           c.EpochNumber(),
		Shards:          c.cfg.Shards,
		RebalanceFactor: c.opts.rebalanceFactor(),
	}
	alive, draining := 0, 0
	for wi, w := range c.workers {
		ws := WorkerStatus{ID: w.id, Addr: w.addr, Joined: w.joined}
		switch {
		case w.drained:
			ws.State = WorkerDrained
		case !w.alive:
			ws.State = WorkerDead
		case w.draining || w.wantsDrain:
			ws.State = WorkerDraining
			draining++
		default:
			ws.State = WorkerAlive
			alive++
		}
		if w.alive {
			ws.Shards = c.ownedBy(wi)
			ws.ShardCount = len(ws.Shards)
			for _, s := range ws.Shards {
				ws.LoadEWMASeconds += c.tel.shardEw[s].Value()
			}
		}
		w.shardsGauge.Set(float64(ws.ShardCount))
		doc.Workers = append(doc.Workers, ws)
	}
	for s := 0; s < c.cfg.Shards; s++ {
		doc.ShardLatencies = append(doc.ShardLatencies, ShardStatus{
			Shard:       s,
			Worker:      c.workers[c.assign[s]].id,
			Epochs:      c.tel.shardLat[s].Count(),
			EWMASeconds: c.tel.shardEw[s].Value(),
			P50Seconds:  c.tel.shardLat[s].P50(),
			P99Seconds:  c.tel.shardLat[s].P99(),
		})
	}
	clusterWorkersAlive.Set(float64(alive))
	clusterWorkersDraining.Set(float64(draining))

	c.mu.Lock()
	doc.Migrations = append([]MigrationStatus(nil), c.migrations...)
	doc.InFlight = c.status.InFlight
	c.status = doc
	c.mu.Unlock()
}
