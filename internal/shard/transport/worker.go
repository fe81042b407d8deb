package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"gps/internal/continuous"
	"gps/internal/netmodel"
	gpsshard "gps/internal/shard"
	"gps/internal/trace"
	"gps/internal/wire"
)

// World is a worker's deterministic replica of the scanned universe.
// UniverseAt returns the world as of the given epoch (all churn through
// that epoch applied). A changed spec always builds a new world through
// the WorldFactory, so epochs decrease only when a shard is placed again,
// under an unchanged spec, at a state older than the world's epoch;
// implementations must support that rewind. Regenerating epoch 0 and
// replaying churn is always correct: the world is a pure function of
// spec and epoch.
type World interface {
	UniverseAt(epoch int) (*netmodel.Universe, error)
}

// WorldFactory builds a World from the coordinator's spec blob. The
// coordinator always delivers the caller's base spec wrapped in the
// partition envelope (EncodeWorldSpec: total shard count + this worker's
// owned shards); factories unwrap with DecodeWorldSpec and may build
// only the owned partition of the world. The base spec format is the
// caller's own — cmd/gpsd uses its checkpoint world header, tests encode
// whatever their generator needs. Returning an error rejects the
// coordinator's Init (e.g. a spec for a world this worker cannot or will
// not simulate); a panic inside the factory is contained and rejected
// the same way, so a corrupt spec can never take the worker process
// down.
type WorldFactory func(spec []byte) (World, error)

// WorkerOptions tunes Serve and Join.
type WorkerOptions struct {
	// Logf receives one line per session event; nil discards.
	Logf func(format string, args ...any)
	// Draining, when set and true, makes the worker leave gracefully:
	// epoch results carry the draining flag, the coordinator migrates
	// this worker's shards away at the next epoch boundary and stops
	// choosing it as a placement target. Serve returns after the
	// current session ends instead of waiting for the next coordinator.
	// The caller flips the bool from its signal handler.
	Draining *atomic.Bool
	// DialTimeout bounds how long Join waits for the coordinator's
	// cluster listener (retried with backoff); 0 selects 15 seconds.
	DialTimeout time.Duration
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o != nil && o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *WorkerOptions) draining() bool {
	return o != nil && o.Draining != nil && o.Draining.Load()
}

func (o *WorkerOptions) joinDialTimeout() time.Duration {
	if o == nil || o.DialTimeout <= 0 {
		return 15 * time.Second
	}
	return o.DialTimeout
}

// Serve runs a shard worker: it accepts coordinator sessions on lis (one
// at a time — a worker's shards belong to exactly one coordinator) and
// serves Init/Epoch requests until the listener closes. Request-level
// failures (unknown shard, epoch mismatch, a failed epoch) are reported
// to the coordinator as error frames and the session continues;
// connection-level failures end the session and the worker waits for the
// next coordinator. Closing the listener makes Serve return nil.
func Serve(lis net.Listener, factory WorldFactory, opts *WorkerOptions) error {
	if factory == nil {
		return fmt.Errorf("transport: Serve needs a WorldFactory")
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		workerSessions.Inc()
		s := newSession(factory, opts)
		if err := s.serve(conn); err != nil {
			opts.logf("transport: session from %s ended: %v", conn.RemoteAddr(), err)
		}
		conn.Close()
		// A draining worker leaves the fleet when its session ends —
		// waiting for another coordinator would undo the drain.
		if opts.draining() {
			opts.logf("transport: drained; leaving the fleet")
			return nil
		}
	}
}

// Join registers with a running coordinator's cluster listener (the
// coordinator side of -join): dial, handshake, introduce ourselves with
// msgJoin, then serve the same session protocol a dialed worker serves,
// on the same connection. The coordinator admits the worker at its next
// epoch boundary and places shards on it. Join returns nil when the
// coordinator shuts the session down cleanly (including after a drain);
// a version-skewed coordinator surfaces as a bad-version *wire.Error, a
// refused registration as a *RemoteError.
func Join(addr, id string, factory WorldFactory, opts *WorkerOptions) error {
	if factory == nil {
		return fmt.Errorf("transport: Join needs a WorldFactory")
	}
	conn, err := dialRetry(addr, opts.joinDialTimeout())
	if err != nil {
		return fmt.Errorf("transport: joining coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	if err := openConn(conn, "coordinator", addr, opts.joinDialTimeout()); err != nil {
		return err
	}
	if err := writeFrame(conn, msgJoin, encodeJoin(joinMsg{ID: id})); err != nil {
		return &DisconnectError{Addr: addr, Err: err}
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return &DisconnectError{Addr: addr, Err: err}
	}
	switch typ {
	case msgJoinOK:
	case msgError:
		msg, err := decodeError(payload)
		if err != nil {
			return &DisconnectError{Addr: addr, Err: err}
		}
		return &RemoteError{Msg: msg}
	default:
		return &DisconnectError{Addr: addr, Err: fmt.Errorf("frame type %d in join reply, want %d", typ, msgJoinOK)}
	}
	// Registered. Idle stretches between epochs are normal, so clear
	// the registration deadline and rely on keepalive, like Serve.
	conn.SetDeadline(time.Time{})
	workerSessions.Inc()
	opts.logf("transport: joined coordinator %s as %q", addr, id)
	s := newSession(factory, opts)
	if err := s.loop(conn); err != nil {
		opts.logf("transport: session with %s ended: %v", addr, err)
		return err
	}
	return nil
}

// session is one coordinator's tenure on a worker: the shards it assigned
// and the world they scan.
type session struct {
	factory WorldFactory
	opts    *WorkerOptions

	world     World
	worldSpec []byte
	runners   map[int]*continuous.Runner
}

func newSession(factory WorldFactory, opts *WorkerOptions) *session {
	return &session{
		factory: factory,
		opts:    opts,
		runners: make(map[int]*continuous.Runner),
	}
}

func (s *session) serve(conn net.Conn) error {
	if err := openConn(conn, "coordinator", conn.RemoteAddr().String(), s.opts.joinDialTimeout()); err != nil {
		return err
	}
	// Idle stretches between epochs are normal, so the session itself
	// has no deadline: keepalive is what frees the worker from a
	// half-open connection for the next coordinator.
	conn.SetDeadline(time.Time{})
	return s.loop(conn)
}

// loop serves framed requests until shutdown or a connection failure.
// Join enters here directly — its handshake happened during
// registration, on the same connection.
func (s *session) loop(conn net.Conn) error {
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			if wire.IsKind(err, wire.Truncated) {
				return &DisconnectError{Addr: conn.RemoteAddr().String(), Err: err}
			}
			return err
		}
		workerFramesRecv.Inc()
		workerBytesRecv.Add(uint64(len(payload) + frameOverhead))
		switch typ {
		case msgInit:
			err = s.handleInit(conn, payload)
		case msgEpoch:
			err = s.handleEpoch(conn, payload)
		case msgShutdown:
			return nil
		default:
			err = s.reject(conn, fmt.Errorf("unexpected frame type %d", typ))
		}
		if err != nil {
			return err
		}
	}
}

// send is writeFrame plus link accounting; every session response goes
// through it.
func (s *session) send(conn net.Conn, typ uint8, payload []byte) error {
	workerFramesSent.Inc()
	workerBytesSent.Add(uint64(len(payload) + frameOverhead))
	return writeFrame(conn, typ, payload)
}

// reject reports a request failure to the coordinator; the session
// continues. Only a conn write failure is returned.
func (s *session) reject(conn net.Conn, cause error) error {
	return s.send(conn, msgError, encodeError(cause.Error()))
}

// buildWorld runs the factory on a changed world spec. A crafted or
// corrupt spec must surface as a reject frame, not kill the worker
// process, so a panic is contained.
func (s *session) buildWorld(spec []byte) (w World, err error) {
	defer func() {
		if r := recover(); r != nil {
			w, err = nil, fmt.Errorf("world build panicked: %v", r)
		}
	}()
	return s.factory(spec)
}

// handleInit is the worker half of the one placement RPC: build the
// world partition a changed spec names (the expensive, rejectable part),
// resume a runner on the carried state, and ack with the shard.
// The worker cannot tell a first seeding from a resume, a failover or a
// live migration, and does not need to: whatever runner it held for the
// shard was a cache of the coordinator's state and is replaced. A
// refusal touches no runner, so the coordinator goes on using whichever
// worker owned the shard before.
func (s *session) handleInit(conn net.Conn, payload []byte) error {
	m, err := decodeInit(payload)
	if err != nil {
		return s.reject(conn, err)
	}
	adoptSpan := trace.StartSpan(m.Trace, "adopt",
		trace.Int("shard", m.Shard), trace.Int("state_bytes", len(m.State)))
	if s.world == nil || !bytes.Equal(s.worldSpec, m.WorldSpec) {
		w, err := s.buildWorld(m.WorldSpec)
		if err != nil {
			adoptSpan.FinishErr(err)
			return s.reject(conn, fmt.Errorf("world spec rejected: %w", err))
		}
		s.world, s.worldSpec = w, m.WorldSpec
	}
	st, err := gpsshard.DecodeState(m.State)
	if err != nil {
		adoptSpan.FinishErr(err)
		return s.reject(conn, err)
	}
	s.runners[m.Shard] = continuous.Resume(st, m.Cfg)
	adoptSpan.Finish()
	s.opts.logf("transport: adopted shard %d/%d at epoch %d (%d known services)",
		m.Shard, m.Cfg.ShardCount, st.Epoch, len(st.Known))
	workerShardsOwned.Set(float64(len(s.runners)))
	return s.send(conn, msgInitOK, encodeShardAck(m.Shard))
}

func (s *session) handleEpoch(conn net.Conn, payload []byte) error {
	shard, epoch, tc, err := decodeEpochReq(payload)
	if err != nil {
		return s.reject(conn, err)
	}
	r, ok := s.runners[shard]
	if !ok {
		return s.reject(conn, fmt.Errorf("shard %d was never assigned to this worker", shard))
	}
	if want := r.State().Epoch + 1; epoch != want {
		return s.reject(conn, fmt.Errorf("shard %d is at epoch %d; cannot run epoch %d (want %d)",
			shard, r.State().Epoch, epoch, want))
	}
	u, err := s.world.UniverseAt(epoch)
	if err != nil {
		return s.reject(conn, fmt.Errorf("advancing world to epoch %d: %w", epoch, err))
	}
	// A trace context on the request is the coordinator's per-shard RPC
	// span: parent the runner's phase spans directly under it, collect
	// everything this trace records here, and ship the batch back on
	// the result so the coordinator stitches one tree. Local log lines
	// emitted meanwhile join the same trace id.
	var col *trace.Collector
	if tc.Valid() {
		col = trace.Default.Collect(tc.TraceID)
		trace.Default.SetCurrentTrace(tc.TraceID)
		r.SetTraceParent(tc)
	}
	base := r.State() // the coordinator's state for the shard (shard.Executor)
	stats, eerr := r.Epoch(u)
	var spanBlob []byte
	if tc.Valid() {
		r.SetTraceParent(trace.SpanContext{})
		trace.Default.SetCurrentTrace(0)
		spanBlob = trace.EncodeSpans(col.Stop())
	}
	if eerr != nil {
		return s.reject(conn, fmt.Errorf("epoch %d on shard %d: %w", epoch, shard, eerr))
	}
	workerEpochs.Inc()
	return s.send(conn, msgEpochResult, encodeEpochResult(epochResult{
		Shard: shard, Step: gpsshard.EncodeStep(base, r.State()), Draining: s.opts.draining(), Stats: stats, Spans: spanBlob,
	}))
}
