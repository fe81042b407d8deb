package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/shard"
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

func (o *Options) logf(format string, args ...any) {
	if o != nil && o.Logf != nil {
		o.Logf(format, args...)
	}
}

// WorkerError is raised by the coordinator's failover logic.
type WorkerError = shard.WorkerError

// workerLink is one worker connection — dialed at startup or admitted
// through the join listener — and the shard.Executor that speaks GPST
// over it. RPCs on a link are strictly sequential request/response;
// concurrency comes from running links in parallel. After admission a
// link is touched only by the epoch-loop thread.
type workerLink struct {
	id     string // cluster identity: the dial address, or the joiner's -name
	addr   string
	conn   net.Conn
	closed bool // Close ran: by the coordinator (the worker left) or Coordinator.Close

	timeout   time.Duration // one RPC round trip
	worldSpec []byte        // caller's base spec; wrapped per placement
}

func (c *Coordinator) newWorkerLink(id, addr string, conn net.Conn) *workerLink {
	return &workerLink{id: id, addr: addr, conn: conn, timeout: c.opts.timeout(), worldSpec: c.worldSpec}
}

// rpc performs one framed round trip under the deadline. An msgError
// frame becomes a RemoteError; any transport failure becomes a
// DisconnectError.
func (w *workerLink) rpc(typ uint8, payload []byte, want uint8) ([]byte, error) {
	w.conn.SetDeadline(time.Now().Add(w.timeout))
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

// Place is the one placement RPC (msgInit). The world spec is the base
// spec wrapped with the owned-shard set, so the worker notices the new
// bytes and builds its partition to cover the shard before it acks. The
// shard counts as placed only once the worker's ack names it; an ack for
// any other shard poisons the link like any protocol violation
// (*DisconnectError, so the coordinator fails over). A RemoteError means
// the healthy worker refused deterministically (bad world spec,
// undecodable state).
func (w *workerLink) Place(s int, cfg continuous.Config, st *continuous.State, owned []int, tc trace.SpanContext) error {
	blob, err := shard.EncodeState(st)
	if err != nil {
		return err
	}
	m := initMsg{
		Shard: s, Cfg: cfg, State: blob, Trace: tc,
		WorldSpec: EncodeWorldSpec(w.worldSpec, cfg.ShardCount, owned),
	}
	resp, err := w.rpc(msgInit, encodeInit(m), msgInitOK)
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
	return nil
}

// Epoch runs one shard epoch on the worker (msgEpoch), which scans its own
// replica of the universe, and applies the step it answers with to base; a
// bad step poisons the link (*DisconnectError), so the shard is placed
// again. The RPC span opened under parent is the trace context shipped to
// the worker, so the worker's phase spans — returned on the result frame
// and imported below — land directly beneath it in the stitched tree.
func (w *workerLink) Epoch(s, epoch int, base *continuous.State, _ *netmodel.Universe, parent trace.SpanContext) (st *continuous.State, stats continuous.EpochStats, draining bool, err error) {
	rpcSpan := trace.StartSpan(parent, "rpc.epoch",
		trace.Int("shard", s), trace.String("worker", w.id))
	defer func() { rpcSpan.FinishErr(err) }()
	resp, err := w.rpc(msgEpoch, encodeEpochReq(s, epoch, rpcSpan.Context()), msgEpochResult)
	if err != nil {
		return nil, stats, false, err
	}
	res, err := decodeEpochResult(resp)
	if len(res.Spans) > 0 {
		if recs, derr := trace.DecodeSpans(res.Spans); derr == nil {
			trace.Default.Import(recs)
		}
	}
	switch {
	case err != nil:
		return nil, stats, false, err
	case res.Shard != s:
		return nil, stats, false, fmt.Errorf("worker answered for shard %d, asked about %d", res.Shard, s)
	case res.Stats.Epoch != epoch:
		return nil, stats, false, fmt.Errorf("shard %d: worker reported epoch %d, asked for %d", s, res.Stats.Epoch, epoch)
	}
	if st, err = shard.ApplyStep(base, res.Step); err != nil {
		return nil, stats, false, &DisconnectError{Addr: w.addr, Err: fmt.Errorf("shard %d: %w", s, err)}
	}
	return st, res.Stats, res.Draining, nil
}

// Close releases the link: a best-effort shutdown frame, so the worker's
// session ends cleanly instead of on a cut connection, then the socket.
func (w *workerLink) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.conn.SetDeadline(time.Now().Add(time.Second))
	writeFrame(w.conn, msgShutdown, nil)
	return w.conn.Close()
}

// Coordinator is the one shard coordinator (shard.Coordinator: states,
// assignment, epoch loop, failover, membership policy, merged view) over a
// fleet of worker processes. It adds only what is about sockets: dialing,
// the join listener and its pending set, and Close's shutdown frames.
// Apart from Status and RequestDrain it is not safe for concurrent use.
type Coordinator struct {
	*shard.Coordinator
	worldSpec []byte
	opts      *Options
	joinLis   net.Listener

	// Shared with the join listener's goroutines.
	mu      sync.Mutex
	links   []*workerLink // every connection ever opened, for Close
	pending []*workerLink // joined, admitted at the next epoch boundary
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
	c := &Coordinator{
		Coordinator: shard.NewFleetCoordinator(cfg, opts.logf),
		worldSpec:   worldSpec,
		opts:        opts,
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
		w := c.newWorkerLink(addr, addr, conn)
		c.links = append(c.links, w)
		c.Admit(addr, addr, w)
	}
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

// Epoch hands the coordinator the workers that joined since the last one,
// then runs its next epoch with no universe: workers hold their own.
func (c *Coordinator) Epoch() (continuous.EpochStats, error) {
	c.mu.Lock()
	joined := c.pending
	c.pending = nil
	clusterWorkersPending.Set(0)
	c.mu.Unlock()
	for _, w := range joined {
		c.Admit(w.id, w.addr, w)
	}
	return c.Coordinator.Epoch(nil)
}

// Close shuts the fleet down: the join listener stops accepting, then a
// best-effort shutdown frame goes to each living worker — including
// joiners still waiting in the pending set, so a worker that registered
// but was never admitted exits cleanly too — then the connections.
func (c *Coordinator) Close() error {
	if c.joinLis != nil {
		c.joinLis.Close()
	}
	c.mu.Lock()
	links := c.links
	c.pending = nil
	c.mu.Unlock()
	for _, w := range links {
		w.Close()
	}
	return nil
}
