package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"gps/internal/wire"
)

// The replication feed puts the epoch-delta stream on the wire: an
// origin process (the daemon that commits epochs) listens with
// ServeFeed, and any number of read replicas subscribe with DialFeed.
// A session is one msgSubscribe frame carrying the epoch the replica
// already holds, answered by an endless push stream: msgDelta frames
// while the subscriber's epoch is still in the origin's delta history,
// a msgSnapshot bootstrap (full GPSV inventory) when it is not —
// first contact, a restart from scratch, or a replica that fell more
// than the history depth behind. After a snapshot the stream continues
// with deltas from the snapshot's epoch. msgShutdown ends the stream
// cleanly when the origin closes.
//
// Unlike the coordinator↔worker protocol, feed sessions are concurrent:
// one origin serves N replicas, each on its own connection.

// FeedSource is what an origin serves: the current epoch and inventory,
// the retained per-epoch deltas, and a way to wait for the next commit.
// internal/serve.Feed implements it; the interface lives here (as a
// structural contract) so the transport stays importable on its own.
//
// Implementations must be safe for concurrent use — every replica
// session calls from its own goroutine.
type FeedSource interface {
	// Head returns the latest committed epoch, -1 before the first.
	Head() int
	// Snapshot returns the current epoch and its full inventory as
	// canonical GPSV bytes.
	Snapshot() (epoch int, inv []byte)
	// Delta returns the encoded GPSE delta advancing epoch from to the
	// returned next epoch, or ok=false when from is no longer in the
	// retained history (the subscriber must re-bootstrap).
	Delta(from int) (payload []byte, next int, ok bool)
	// Wait blocks until Head exceeds epoch, cancel fires, or the source
	// closes; it returns false only when the source closed for good.
	Wait(epoch int, cancel <-chan struct{}) bool
}

// ServeFeed accepts replica subscriptions on lis and streams src to
// each until the listener closes (which makes ServeFeed return nil) or
// src closes (which ends each session with a clean shutdown frame).
// Sessions are independent: a slow or dead replica only stalls itself —
// each write carries Options.Timeout as its deadline, and a replica
// that cannot drain an epoch within it is disconnected (it will redial
// and, if it fell out of history, re-bootstrap).
func ServeFeed(lis net.Listener, src FeedSource, opts *Options) error {
	if src == nil {
		return fmt.Errorf("transport: ServeFeed needs a FeedSource")
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		feedSessions.Inc()
		feedSubscribers.Add(1)
		go func(conn net.Conn) {
			defer feedSubscribers.Add(-1)
			defer conn.Close()
			if err := serveFeedSession(conn, src, opts); err != nil {
				opts.logf("transport: feed session from %s ended: %v", conn.RemoteAddr(), err)
			}
		}(conn)
	}
}

// FeedSession runs one subscriber's session over src, whatever the
// subscriber's transport: from the epoch it already holds, emit is
// handed the events described above — a FeedDelta while that epoch is in
// src's history, a FeedSnapshot when it is not — waiting between
// commits. It returns nil when src closes (the clean end of the stream,
// which the caller signals in its own encoding), ctx.Err() when the
// subscriber went away, and emit's error for an undeliverable event.
func FeedSession(ctx context.Context, src FeedSource, since int, emit func(FeedEvent) error) error {
	cur := since
	for {
		head := src.Head()
		if head < 0 || cur == head {
			// Nothing to send (yet): wait for the next commit.
			if !src.Wait(head, ctx.Done()) {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			continue
		}
		var ev FeedEvent
		if gpse, next, ok := src.Delta(cur); ok {
			ev = FeedEvent{Kind: FeedDelta, Epoch: next, Head: src.Head(), Payload: gpse}
		} else {
			epoch, gpsv := src.Snapshot()
			ev = FeedEvent{Kind: FeedSnapshot, Epoch: epoch, Head: epoch, Payload: gpsv}
		}
		if err := emit(ev); err != nil {
			return err
		}
		cur = ev.Epoch
	}
}

// serveFeedSession runs one replica's subscription to completion: the
// set-up exchange, then FeedSession with each event written as a frame.
func serveFeedSession(conn net.Conn, src FeedSource, opts *Options) error {
	if err := openConn(conn, "feed subscriber", conn.RemoteAddr().String(), opts.timeout()); err != nil {
		return err
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != msgSubscribe {
		writeFrame(conn, msgError, encodeError(fmt.Sprintf("expected subscribe frame, got type %d", typ)))
		return fmt.Errorf("transport: feed client opened with frame type %d", typ)
	}
	since, err := decodeSubscribe(payload)
	if err != nil {
		return err
	}

	// The client sends nothing after the subscribe, so a pending read
	// only ever completes when the connection dies — which is exactly
	// the signal the session needs to stop waiting for a gone replica.
	conn.SetDeadline(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer cancel()
		io.Copy(io.Discard, conn)
	}()

	err = FeedSession(ctx, src, since, func(ev FeedEvent) error {
		if ev.Kind == FeedSnapshot {
			if err := writeFeedFrame(conn, opts, msgSnapshot, encodeFeedSnapshot(ev.Epoch, ev.Payload)); err != nil {
				return err
			}
			feedSnapshotsSent.Inc()
			return nil
		}
		if err := writeFeedFrame(conn, opts, msgDelta, encodeFeedDelta(ev.Head, ev.Epoch, ev.Payload)); err != nil {
			return err
		}
		feedDeltasSent.Inc()
		return nil
	})
	if err == nil {
		writeFeedFrame(conn, opts, msgShutdown, nil)
	} else if errors.Is(err, context.Canceled) {
		err = nil // the replica hung up; nothing to report
	}
	return err
}

// writeFeedFrame sends one frame under a per-write deadline: a replica
// that cannot drain within Options.Timeout is cut loose instead of
// pinning this session's goroutine.
func writeFeedFrame(conn net.Conn, opts *Options, typ uint8, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(opts.timeout()))
	err := writeFrame(conn, typ, payload)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// FeedEventKind discriminates FeedEvent payloads.
type FeedEventKind uint8

const (
	// FeedSnapshot carries a full GPSV inventory; the replica replaces
	// its state with it.
	FeedSnapshot FeedEventKind = iota + 1
	// FeedDelta carries one GPSE epoch delta; the replica applies it.
	FeedDelta
)

// FeedEvent is one origin push: a bootstrap snapshot or an epoch delta.
type FeedEvent struct {
	Kind FeedEventKind
	// Epoch is the epoch this event lands the replica on.
	Epoch int
	// Head is the origin's latest epoch when the event was sent;
	// Head - Epoch is the replica's lag in epochs.
	Head int
	// Payload holds GPSV bytes (FeedSnapshot) or GPSE bytes (FeedDelta).
	Payload []byte
}

// FeedConn is a replica's live subscription to an origin feed.
type FeedConn struct {
	addr string
	conn net.Conn
}

// DialFeed subscribes to the origin feed at addr, resuming after epoch
// since (-1 subscribes from scratch; the first event is then a
// snapshot). The dial retries with backoff until Options.DialTimeout,
// so replicas may start before their origin.
func DialFeed(addr string, since int, opts *Options) (*FeedConn, error) {
	conn, err := dialRetry(addr, opts.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("transport: dialing feed %s: %w", addr, err)
	}
	if err := openConn(conn, "feed", addr, opts.timeout()); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeFrame(conn, msgSubscribe, encodeSubscribe(since)); err != nil {
		conn.Close()
		return nil, &DisconnectError{Addr: addr, Err: err}
	}
	conn.SetDeadline(time.Time{})
	return &FeedConn{addr: addr, conn: conn}, nil
}

// Recv blocks for the next origin push. It returns io.EOF on a clean
// origin shutdown, a *RemoteError when the origin rejected the
// subscription, and a *DisconnectError when the connection died.
func (f *FeedConn) Recv() (FeedEvent, error) {
	typ, payload, err := readFrame(f.conn)
	if err != nil {
		if errors.Is(err, io.EOF) || wire.IsKind(err, wire.Truncated) {
			return FeedEvent{}, &DisconnectError{Addr: f.addr, Err: err}
		}
		return FeedEvent{}, err
	}
	feedEventsRecv.Inc()
	switch typ {
	case msgSnapshot:
		return decodeFeedSnapshot(payload)
	case msgDelta:
		return decodeFeedDelta(payload)
	case msgShutdown:
		return FeedEvent{}, io.EOF
	case msgError:
		msg, err := decodeError(payload)
		if err != nil {
			return FeedEvent{}, err
		}
		return FeedEvent{}, &RemoteError{Msg: msg}
	default:
		return FeedEvent{}, fmt.Errorf("transport: unexpected feed frame type %d", typ)
	}
}

// The three feed payloads. A snapshot lands the replica on the origin's
// head, so its Head is its Epoch; a delta carries the head separately.

func encodeSubscribe(since int) []byte {
	var e wire.Enc
	e.Varint(int64(since))
	return e
}

func decodeSubscribe(payload []byte) (since int, err error) {
	d := wire.NewDec(Magic, payload)
	since = int(d.Varint())
	return since, d.Done()
}

func encodeFeedSnapshot(epoch int, gpsv []byte) []byte {
	e := make(wire.Enc, 0, len(gpsv)+20)
	e.Varint(int64(epoch))
	e.Blob(gpsv)
	return e
}

func decodeFeedSnapshot(payload []byte) (FeedEvent, error) {
	d := wire.NewDec(Magic, payload)
	ev := FeedEvent{Kind: FeedSnapshot}
	ev.Epoch = int(d.Varint())
	ev.Head = ev.Epoch
	ev.Payload = d.Blob(maxFrame)
	return ev, d.Done()
}

func encodeFeedDelta(head, epoch int, gpse []byte) []byte {
	e := make(wire.Enc, 0, len(gpse)+30)
	e.Varint(int64(head))
	e.Varint(int64(epoch))
	e.Blob(gpse)
	return e
}

func decodeFeedDelta(payload []byte) (FeedEvent, error) {
	d := wire.NewDec(Magic, payload)
	ev := FeedEvent{Kind: FeedDelta}
	ev.Head = int(d.Varint())
	ev.Epoch = int(d.Varint())
	ev.Payload = d.Blob(maxFrame)
	return ev, d.Done()
}

// Close tears the subscription down; a blocked Recv returns.
func (f *FeedConn) Close() error { return f.conn.Close() }
