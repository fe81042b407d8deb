package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"gps/internal/shard"
)

// The socket half of dynamic membership: workers started with -join dial
// the cluster listener (AcceptJoins), register, and wait in a pending set
// until the next Epoch hands them to the coordinator, which owns
// everything from admission on (shard/cluster.go).

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

	// The status folds the pending set in, so one scan covers both; the
	// lock is held through the append so two joiners cannot claim one id.
	c.mu.Lock()
	for _, ws := range c.statusLocked().Workers {
		if ws.ID == m.ID && ws.State != shard.WorkerDead && ws.State != shard.WorkerDrained {
			c.mu.Unlock()
			writeFrame(conn, msgError, encodeError(fmt.Sprintf("worker id %q is already in the fleet", m.ID)))
			reject(fmt.Errorf("worker id %q already taken", m.ID))
			return
		}
	}
	w := c.newWorkerLink(m.ID, addr, conn)
	c.links = append(c.links, w)
	c.pending = append(c.pending, w)
	clusterWorkersPending.Set(float64(len(c.pending)))
	c.mu.Unlock()

	if err := writeFrame(conn, msgJoinOK, nil); err != nil {
		c.opts.logf("transport: join from %s: %v", addr, err)
		c.removePending(w)
		w.Close()
		return
	}
	conn.SetDeadline(time.Time{}) // per-RPC deadlines take over after admission
	c.opts.logf("transport: worker %q (%s) joined; admitting at the next epoch boundary", m.ID, addr)
}

// removePending drops a registration that failed before admission, from
// the pending set and from the links Close would shut down. Both slices
// are rebuilt, not edited in place: Close and Epoch walk the ones they
// took under the lock after releasing it.
func (c *Coordinator) removePending(w *workerLink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keep := func(s []*workerLink) []*workerLink {
		return slices.DeleteFunc(slices.Clone(s), func(p *workerLink) bool { return p == w })
	}
	c.pending, c.links = keep(c.pending), keep(c.links)
	clusterWorkersPending.Set(float64(len(c.pending)))
}

// Status returns a copy of the live cluster document. Workers still in
// the pending set are folded in here (state "pending") rather than at
// admission, so a join is visible the moment it registers — not one
// epoch later.
func (c *Coordinator) Status() shard.ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

func (c *Coordinator) statusLocked() shard.ClusterStatus {
	out := c.Coordinator.Status()
	out.Workers = out.Workers[:len(out.Workers):len(out.Workers)] // shared: append must copy
	for _, p := range c.pending {
		out.Workers = append(out.Workers, shard.WorkerStatus{
			ID: p.id, Addr: p.addr, State: shard.WorkerPending, Joined: true,
		})
	}
	return out
}
