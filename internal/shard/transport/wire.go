// Package transport runs the shard coordinator across process and host
// boundaries. The coordinator itself is internal/shard's — one epoch loop,
// one commit, one membership policy, in process and distributed alike —
// and this package supplies the executor that puts a wire on the shard
// boundary (pure-hash ownership and per-shard checkpoint blobs make it
// serialization-friendly): Dial connects to N worker processes, the
// coordinator places each shard's state on a worker (addresses map to
// shards via asndb.ShardOf; shards map to workers round-robin) and
// streams per-epoch shard results back. Because every shard epoch is a
// deterministic function of (state, universe, config), and workers
// replicate the universe deterministically from a world spec, the
// distributed merged inventory is byte-identical to the in-process
// run's — the contract the CI gate diffs.
//
// The wire protocol is deliberately small: a 5-byte preamble ("GPST" plus
// a version byte) in each direction, then length-prefixed frames of
//
//	type u8 | payload length u32 big-endian | payload
//
// Payloads are uvarint/zigzag scalars plus length-prefixed blobs that
// reuse the existing on-disk encodings (GPSC checkpoints to place shard
// state and for an epoch step's new entries, GPSV/GPSE for the feed), so
// the transport inherits their compactness, and a version change in one of
// them bumps Version. Every malformed input
// maps to a typed error — a *wire.Error with Format "GPST" (bad magic,
// bad version, truncated, implausible, trailing data) or a
// FrameSizeError — never a silent misparse or a hang.
package transport

import (
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"time"

	"gps/internal/continuous"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/probmodel"
	"gps/internal/trace"
	"gps/internal/wire"
)

const (
	// Magic opens every transport stream in both directions.
	Magic = "GPST"
	// Version is the wire-protocol version; peers must match exactly.
	// Version 2 added dynamic membership: the join handshake
	// (msgJoin/msgJoinOK) and the draining flag on epoch results.
	// Version 3 made msgInit the only way a shard reaches a worker — it
	// always carries the shard's state — and retired the seed broadcast
	// and the two-leg migration frames. Version 4 put the epoch's
	// counters and phases in msgEpochResult's fixed layout, beside a
	// shard state (GPSC version 2) that no longer holds them. Version 5
	// ships GPSC 3 states, so a mixed fleet is refused at the preamble,
	// not at every placement. Version 6 dropped the runner config's
	// random-priors-order flag, version 7 its exact-shard-counts flag,
	// version 8 sent the epoch result's step (shard.EncodeStep), not its
	// state. Version 9 made the trace context and the span batch fixed
	// last fields, so every payload has one layout and every payload
	// decoder refuses unread bytes. A skewed peer on either listener gets
	// a typed bad-version *wire.Error on both sides — the listener logs
	// and keeps accepting, the worker reports and exits — never a
	// misparse.
	Version = 9
	// maxFrame bounds one frame's payload; matches the checkpoint
	// readers' implausibility guards.
	maxFrame = 1 << 28
)

// Frame types. The numbers are wire identities, so the ones version 3
// retired (7, 8, 14, 15, 16) stay unused rather than being re-dealt.
const (
	msgInit        = 1 // coordinator → worker: adopt a shard at the carried state
	msgInitOK      = 2 // worker → coordinator: shard adopted (names the shard)
	msgEpoch       = 3 // coordinator → worker: run one epoch on a shard
	msgEpochResult = 4 // worker → coordinator: the epoch's step and stats
	msgShutdown    = 5 // coordinator → worker: close the session cleanly
	msgError       = 6 // worker → coordinator: request failed remotely

	// Replication feed frames (feed.go). The feed reuses the GPST
	// preamble and framing; a replica subscribes once, then the origin
	// pushes snapshot/delta frames for as long as the session lives.
	msgSubscribe = 9  // replica → origin: start streaming after an epoch
	msgSnapshot  = 10 // origin → replica: full GPSV inventory (bootstrap)
	msgDelta     = 11 // origin → replica: one GPSE epoch delta

	// Dynamic-membership frames. A worker started with -join dials the
	// coordinator's cluster listener and registers with msgJoin; once
	// admitted it serves the same session protocol as a dialed worker,
	// on the same connection. A live migration needs no frame of its
	// own: it is an msgInit to the recipient (cluster.go).
	msgJoin   = 12 // worker → coordinator: register with the cluster
	msgJoinOK = 13 // coordinator → worker: registered; session follows
)

// FrameSizeError reports a length prefix larger than the protocol allows:
// either a corrupt stream or a peer trying to make the reader allocate.
type FrameSizeError struct {
	Type uint8
	Size uint64
	Max  uint64
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("transport: frame type %d declares %d-byte payload, limit %d", e.Type, e.Size, e.Max)
}

// Refused: a payload too large for one worker is too large for all
// (shard.Executor).
func (e *FrameSizeError) Refused() bool { return true }

// RemoteError carries a failure the worker reported over the wire (an
// msgError frame): the connection is healthy, the request failed.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// Refused: every other worker would answer the same (shard.Executor).
func (e *RemoteError) Refused() bool { return true }

// DisconnectError reports a connection that failed mid-conversation.
type DisconnectError struct {
	Addr string
	Err  error
}

func (e *DisconnectError) Error() string {
	return fmt.Sprintf("transport: worker %s disconnected: %v", e.Addr, e.Err)
}

func (e *DisconnectError) Unwrap() error { return e.Err }

// openConn is how every GPST connection starts, on both ends of every
// link (coordinator↔worker, join, feed): keepalive, because links idle
// between epochs and only keepalive reaps a half-open connection to a
// crashed or partitioned peer, then the preamble exchange under a set-up
// deadline, which stays armed for the caller's own set-up frames
// (subscribe, join) until the caller clears or replaces it. A preamble
// that cannot be sent is a *DisconnectError; one that cannot be read or
// is refused wraps the decoder's error (version skew is a bad-version
// *wire.Error) with the peer it came from.
func openConn(conn net.Conn, peer, addr string, setup time.Duration) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	conn.SetDeadline(time.Now().Add(setup))
	if err := writeHandshake(conn); err != nil {
		return &DisconnectError{Addr: addr, Err: err}
	}
	if err := readHandshake(conn); err != nil {
		return fmt.Errorf("transport: handshake with %s %s: %w", peer, addr, err)
	}
	return nil
}

// writeHandshake sends this side's stream preamble.
func writeHandshake(w io.Writer) error {
	var e wire.Enc
	e.Header(Magic, Version)
	_, err := w.Write(e)
	return err
}

// readHandshake consumes and validates the peer's stream preamble. A
// stream that ends inside it is a truncation; any other read failure
// (a deadline, a reset) is returned as the connection's own error.
func readHandshake(r io.Reader) error {
	var buf [len(Magic) + 1]byte
	n, err := io.ReadFull(r, buf[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	d := wire.NewDec(Magic, buf[:n])
	d.At("handshake", -1)
	d.Header(Magic, Version)
	return d.Done()
}

// writeFrame sends one frame, rejecting oversized payloads locally — a
// clear error at the sender beats a FrameSizeError surfacing as a
// mysterious disconnect on the peer (and past 4 GiB the u32 length
// prefix would silently wrap and desync the stream).
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	if uint64(len(payload)) > maxFrame {
		return &FrameSizeError{Type: typ, Size: uint64(len(payload)), Max: maxFrame}
	}
	hdr := make(wire.Enc, 0, frameOverhead)
	hdr.U8(typ)
	hdr.U32(uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. A stream that ends cleanly between frames
// returns io.EOF; one cut mid-frame returns a truncated *wire.Error; an
// implausible length prefix returns FrameSizeError before any
// allocation.
func readFrame(r io.Reader) (uint8, []byte, error) {
	var hdr [frameOverhead]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = truncatedFrame(fmt.Errorf("stream closed %d bytes into the frame header", n))
		}
		return 0, nil, err
	}
	d := wire.NewDec(Magic, hdr[:])
	typ, size := d.U8(), uint64(d.U32())
	if size > maxFrame {
		return typ, nil, &FrameSizeError{Type: typ, Size: size, Max: maxFrame}
	}
	payload := make([]byte, size)
	if n, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = truncatedFrame(fmt.Errorf("stream closed %d bytes into a %d-byte payload", n, size))
		}
		return typ, nil, err
	}
	return typ, payload, nil
}

// truncatedFrame reports a stream that ended mid-frame: the peer died or
// the connection was cut between a length prefix and its payload.
func truncatedFrame(detail error) error {
	return &wire.Error{Format: Magic, Kind: wire.Truncated, Section: "frame", Index: -1, Err: detail}
}

// Payload decoders in this package finish with Dec.Done: a payload has
// one layout, and unread bytes are a Trailing error (gpslint's
// wirehygiene holds them to it). A length-prefixed field is bounded by
// maxFrame: it cannot outgrow the frame that carries it. A span context
// is the fixed last field of the frames that carry one, as two
// uvarints, trace id then span id, both zero when there is no trace.

// encodeConfig serializes a per-shard continuous configuration. The field
// order is frozen by Version.
func encodeConfig(e *wire.Enc, c continuous.Config) {
	e.Uvarint(c.Budget)
	e.Uvarint(math.Float64bits(c.ReverifyFraction))
	e.Varint(int64(c.MaxStale))
	e.Varint(int64(c.ShardIndex))
	e.Varint(int64(c.ShardCount))
	p := c.Pipeline
	e.U8(p.StepBits)
	e.Bool(p.StepZero)
	e.Varint(int64(p.Workers))
	e.U8(uint8(p.Families))
	e.Uvarint(math.Float64bits(p.Floor))
	e.Varint(int64(p.MinSupport))
	keys := make([]byte, len(p.AppKeys))
	for i, k := range p.AppKeys {
		keys[i] = byte(k)
	}
	e.Blob(keys)
	e.Uvarint(p.Budget)
	e.Varint(p.Seed)
}

func decodeConfig(d *wire.Dec) continuous.Config {
	var c continuous.Config
	c.Budget = d.Uvarint()
	c.ReverifyFraction = math.Float64frombits(d.Uvarint())
	c.MaxStale = int(d.Varint())
	c.ShardIndex = int(d.Varint())
	c.ShardCount = int(d.Varint())
	c.Pipeline.StepBits = d.U8()
	c.Pipeline.StepZero = d.Bool()
	c.Pipeline.Workers = int(d.Varint())
	c.Pipeline.Families = probmodel.FamilySet(d.U8())
	c.Pipeline.Floor = math.Float64frombits(d.Uvarint())
	c.Pipeline.MinSupport = int(d.Varint())
	if keys := d.Blob(maxFrame); len(keys) > 0 {
		c.Pipeline.AppKeys = make([]features.Key, len(keys))
		for i, k := range keys {
			c.Pipeline.AppKeys[i] = features.Key(k)
		}
	}
	c.Pipeline.Budget = d.Uvarint()
	c.Pipeline.Seed = d.Varint()
	return c
}

// initMsg is the decoded form of an msgInit payload — the one placement
// RPC. Seeding, resume, failover and live migration all send it: the
// shard index, its runner config, the recipient's world spec (its owned
// partition including this shard, which it builds before acking when
// the spec changed) and the shard's current state as the coordinator
// holds it.
type initMsg struct {
	Shard     int
	Cfg       continuous.Config
	WorldSpec []byte
	State     []byte // shard.EncodeState blob
	// Trace is the span context of the migration or the epoch that
	// absorbed a failover, zero when untraced: the worker parents its
	// adopt span under it so both sides of the placement share one trace.
	Trace trace.SpanContext
}

func encodeInit(m initMsg) []byte {
	var e wire.Enc
	e.Varint(int64(m.Shard))
	encodeConfig(&e, m.Cfg)
	e.Blob(m.WorldSpec)
	e.Blob(m.State)
	e.Uvarint(m.Trace.TraceID)
	e.Uvarint(m.Trace.SpanID)
	return e
}

func decodeInit(payload []byte) (initMsg, error) {
	d := wire.NewDec(Magic, payload)
	var m initMsg
	m.Shard = int(d.Varint())
	m.Cfg = decodeConfig(d)
	m.WorldSpec = d.Blob(maxFrame)
	m.State = d.Blob(maxFrame)
	m.Trace = trace.SpanContext{TraceID: d.Uvarint(), SpanID: d.Uvarint()}
	return m, d.Done()
}

// encodeEpochReq frames an epoch request; tc, when valid, is the
// coordinator's per-shard RPC span, under which the worker parents its
// phase spans.
func encodeEpochReq(shard, epoch int, tc trace.SpanContext) []byte {
	var e wire.Enc
	e.Varint(int64(shard))
	e.Varint(int64(epoch))
	e.Uvarint(tc.TraceID)
	e.Uvarint(tc.SpanID)
	return e
}

func decodeEpochReq(payload []byte) (shard, epoch int, tc trace.SpanContext, err error) {
	d := wire.NewDec(Magic, payload)
	shard = int(d.Varint())
	epoch = int(d.Varint())
	tc = trace.SpanContext{TraceID: d.Uvarint(), SpanID: d.Uvarint()}
	return shard, epoch, tc, d.Done()
}

// epochResult is the decoded form of an msgEpochResult payload: the
// shard's step from its placed state and the epoch's stats.
type epochResult struct {
	Shard int
	Step  []byte // shard.EncodeStep from the placed state
	// Draining is how a worker asks to leave: set once the process has
	// been told to drain, it makes the coordinator migrate the worker's
	// shards away at the next epoch boundary instead of waiting for the
	// connection to die.
	Draining bool
	// Stats are the epoch's counters and phase split, as the worker's
	// runner returned them.
	Stats continuous.EpochStats
	// Spans is the span batch (trace.EncodeSpans): the worker's phase
	// spans for this epoch, shipped back so the coordinator can stitch
	// them into its own flight recorder. Empty when the request carried
	// no trace context.
	Spans []byte
}

// encodeEpochResult lays out shard | step | draining | the epoch's stats
// (statsCounters) | span batch.
func encodeEpochResult(r epochResult) []byte {
	var e wire.Enc
	e.Varint(int64(r.Shard))
	e.Blob(r.Step)
	e.Bool(r.Draining)
	for _, v := range statsCounters(r.Stats) {
		e.Uvarint(v)
	}
	e.Blob(r.Spans)
	return e
}

func decodeEpochResult(payload []byte) (epochResult, error) {
	d := wire.NewDec(Magic, payload)
	var r epochResult
	r.Shard = int(d.Varint())
	r.Step = d.Blob(maxFrame)
	r.Draining = d.Bool()
	var vals [19]uint64
	for i := range vals {
		vals[i] = d.Uvarint()
	}
	r.Stats = statsFromCounters(vals)
	r.Spans = d.Blob(maxFrame)
	return r, d.Done()
}

// statsCounters flattens EpochStats for the wire: the 15 counters, then
// the four phase durations in nanoseconds. statsFromCounters is its
// inverse. Order matters and is frozen by Version.
func statsCounters(h continuous.EpochStats) [19]uint64 {
	return [19]uint64{
		uint64(h.Epoch), h.ReverifyProbes, h.DiscoveryProbes,
		uint64(h.Verified), uint64(h.Lost), uint64(h.Evicted),
		uint64(h.NewFound), uint64(h.Refreshed),
		uint64(h.TrainSize), uint64(h.KnownSize),
		uint64(h.Freshness.Known), uint64(h.Freshness.Fresh),
		uint64(h.Freshness.Stale), uint64(h.Freshness.Checked),
		uint64(h.Freshness.Alive),
		uint64(h.Phases.Reverify), uint64(h.Phases.Retrain),
		uint64(h.Phases.Discover), uint64(h.Phases.Fold),
	}
}

func statsFromCounters(v [19]uint64) continuous.EpochStats {
	return continuous.EpochStats{
		Epoch: int(v[0]), ReverifyProbes: v[1], DiscoveryProbes: v[2],
		Verified: int(v[3]), Lost: int(v[4]), Evicted: int(v[5]),
		NewFound: int(v[6]), Refreshed: int(v[7]),
		TrainSize: int(v[8]), KnownSize: int(v[9]),
		Freshness: metrics.Freshness{
			Known: int(v[10]), Fresh: int(v[11]), Stale: int(v[12]),
			Checked: int(v[13]), Alive: int(v[14]),
		},
		Phases: continuous.PhaseTimes{
			Reverify: time.Duration(v[15]), Retrain: time.Duration(v[16]),
			Discover: time.Duration(v[17]), Fold: time.Duration(v[18]),
		},
	}
}

// encodeError frames a failure report for msgError; the receiver turns
// the decoded message into a *RemoteError.
func encodeError(msg string) []byte {
	var e wire.Enc
	e.Str(msg)
	return e
}

func decodeError(payload []byte) (msg string, err error) {
	d := wire.NewDec(Magic, payload)
	msg = d.Str(maxFrame)
	return msg, d.Done()
}

// encodeShardAck is msgInitOK's payload: the shard the worker adopted,
// which the coordinator checks against the one it placed.
func encodeShardAck(shard int) []byte {
	var e wire.Enc
	e.Varint(int64(shard))
	return e
}

func decodeShardAck(payload []byte) (int, error) {
	d := wire.NewDec(Magic, payload)
	shard := int(d.Varint())
	return shard, d.Done()
}

// joinMsg is the decoded form of an msgJoin payload: how a -join worker
// introduces itself on the coordinator's cluster listener.
type joinMsg struct {
	ID string // worker's self-chosen cluster identity (-name)
}

func encodeJoin(m joinMsg) []byte {
	var e wire.Enc
	e.Str(m.ID)
	return e
}

func decodeJoin(payload []byte) (joinMsg, error) {
	d := wire.NewDec(Magic, payload)
	var m joinMsg
	m.ID = d.Str(maxFrame)
	return m, d.Done()
}

// World-spec partition envelope. The coordinator never sends a caller's
// world spec raw: it wraps it with the receiving worker's owned-shard
// set ("GPSP" + shard count + owned shard indexes + the base spec), so
// a worker can build only the partition of the world its shards scan —
// ~1/N of the full-world memory — instead of replicating the entire
// universe. The owned set is per worker and grows when a re-queued or
// migrated shard lands: the worker sees a changed spec and rebuilds its
// partition through its WorldFactory.
const specMagic = "GPSP"

// maxSpecShards bounds the envelope's shard count against corrupt or
// hostile specs; matches the checkpoint readers' implausibility guard.
const maxSpecShards = 1 << 16

// EncodeWorldSpec wraps a base world spec with the partition envelope:
// the total shard count and the owned shard indexes (canonicalized to
// ascending order, so equal ownership always yields equal bytes).
func EncodeWorldSpec(base []byte, shards int, owned []int) []byte {
	sorted := make([]int, len(owned))
	copy(sorted, owned)
	sort.Ints(sorted)
	var e wire.Enc
	e.Magic(specMagic)
	e.Uvarint(uint64(shards))
	e.Uvarint(uint64(len(sorted)))
	for _, s := range sorted {
		e.Uvarint(uint64(s))
	}
	e.Blob(base)
	return e
}

// DecodeWorldSpec unwraps EncodeWorldSpec output into the base spec, the
// total shard count, and the owned shard indexes (ascending). Every
// malformed input — wrong magic, implausible counts, out-of-range or
// unsorted indexes, truncation, trailing bytes — returns a *wire.Error
// with Format "GPSP", never a misparse.
func DecodeWorldSpec(spec []byte) (base []byte, shards int, owned []int, err error) {
	d := wire.NewDec(specMagic, spec)
	d.Magic(specMagic)
	n := d.Count(d.Uvarint(), maxSpecShards)
	if n < 1 {
		d.Fail(wire.Implausible, fmt.Errorf("declares %d shards", n))
	}
	k := d.Count(d.Uvarint(), uint64(n))
	owned = make([]int, 0, k)
	for i := 0; i < k && d.Err() == nil; i++ {
		d.At("owned shard", i)
		s := d.Uvarint()
		if s >= uint64(n) {
			d.Fail(wire.Implausible, fmt.Errorf("shard %d of %d", s, n))
		} else if i > 0 && int(s) <= owned[i-1] {
			d.Fail(wire.Implausible, fmt.Errorf("list not strictly ascending"))
		}
		owned = append(owned, int(s))
	}
	base = d.Blob(maxFrame)
	if err := d.Done(); err != nil {
		return nil, 0, nil, err
	}
	return base, n, owned, nil
}
