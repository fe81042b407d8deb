package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gps/internal/asndb"
	"gps/internal/continuous"
	"gps/internal/netmodel"
	"gps/internal/serve"
)

// The two query workloads share one server set-up: serve.NewHTTPServer
// over the /v1 handler on a real loopback listener, nproc keep-alive
// client connections, every response checked.
//
// query-point asks small questions about hot keys while a committer
// publishes a new epoch every couple of seconds: the query cache, the
// instrument middleware, net/http and the snapshot swap dominate.
// query-page walks whole postings lists a thousand entries at a time on
// a static snapshot: every request misses the 256-entry cache, so the
// page copy and the JSON encoder dominate.

type queryKind uint8

const (
	qHost queryKind = iota
	qStats
	qPorts
	qPort
	qASN
	qPrefix
)

// query is one question, in the terms the Snapshot answers it in.
type query struct {
	kind          queryKind
	ip            asndb.IP
	port          uint16
	asn           asndb.ASN
	offset, limit int
}

// path returns the query's URL without paging parameters.
func (q query) path() string {
	switch q.kind {
	case qHost:
		return "/v1/host/" + q.ip.String()
	case qStats:
		return "/v1/stats"
	case qPorts:
		return "/v1/ports"
	case qPort:
		return fmt.Sprintf("/v1/port/%d", q.port)
	case qASN:
		return fmt.Sprintf("/v1/asn/%d", q.asn)
	default:
		return "/v1/prefix/" + q.ip.String()
	}
}

// queryServer is the served side: publisher, HTTP server, and the
// inventory the committer churns.
type queryServer struct {
	pub     *serve.Publisher
	handler http.Handler
	hs      *http.Server
	lis     *countingListener
	wire    atomic.Int64
	g       group

	churn *churner
	inv   map[netmodel.Key]*continuous.Entry

	mu    sync.Mutex
	snaps map[int]*serve.Snapshot // every snapshot published, by epoch

	clients []*client
}

func setupQueryServer(r *run, prefixes int) (*queryServer, error) {
	_, all := allServices(r.seed, prefixes)
	s := &queryServer{pub: &serve.Publisher{}, snaps: make(map[int]*serve.Snapshot)}
	s.churn, s.inv = newChurner(r.seed, churnFraction, all.Records)
	s.publish(0, s.inv)
	var err error
	if s.lis, err = listenCounting(&s.wire); err != nil {
		return nil, err
	}
	s.handler = serve.NewServer(s.pub).Handler()
	s.hs = serve.NewHTTPServer("", s.handler)
	s.g.goFn(func() error {
		if err := s.hs.Serve(s.lis); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
	for i := 0; i < r.procs; i++ {
		h, err := dialHTTP(s.lis.addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, &client{h: h, id: i, lastEpoch: -1})
	}
	return s, nil
}

func (s *queryServer) close() {
	for _, c := range s.clients {
		c.h.close()
	}
	s.hs.Close()
	_ = s.g.wait()
}

func (s *queryServer) publish(epoch int, inv map[netmodel.Key]*continuous.Entry) {
	snap := serve.NewSnapshot(epoch, inv)
	s.mu.Lock()
	s.snaps[epoch] = snap
	s.mu.Unlock()
	s.pub.Publish(snap)
	s.inv = inv
}

func (s *queryServer) snapshot(epoch int) *serve.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps[epoch]
}

// commitEvery publishes a freshly churned epoch at each interval until
// stop closes: the writes beside the reads.
func (s *queryServer) commitEvery(every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for epoch := 1; ; epoch++ {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.publish(epoch, s.churn.next(s.inv, epoch))
		}
	}
}

// client is one connection's generator state and what it observed.
type client struct {
	h  *httpConn
	id int

	// lat holds one latency per completed request of the phase, in ms,
	// allocated once per phase; pos is the client's place in its request
	// sequence, kept from one window to the next.
	lat []float64
	pos int

	late        []float64 // open loop: how late each request was sent, ms
	reqs        int64
	notModified int64
	bodyBytes   int64
	lastEpoch   int
	fails       []string
	failed      int

	// One in sampleEvery 200 responses is kept and checked against a
	// direct Snapshot lookup after the measured section.
	samples     []sample
	sampleBytes int

	tr *tracer // set during a traced phase: sampled requests become spans
}

type sample struct {
	q     query
	epoch int
	body  []byte
}

const (
	sampleEvery    = 64
	maxSampleBytes = 4 << 20 // per connection
)

func (c *client) failf(format string, args ...any) {
	c.failed++
	if len(c.fails) < 3 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// begin readies the client for a phase of at most capacity requests,
// starting at position pos of its sequence.
func (c *client) begin(capacity, pos int) {
	c.lat = make([]float64, 0, capacity)
	c.pos = pos
}

// observe checks the response just read and records its latency.
func (c *client) observe(q query, latency time.Duration) {
	h := c.h
	c.reqs++
	switch h.status {
	case http.StatusOK:
		c.bodyBytes += int64(len(h.body))
	case http.StatusNotModified:
		c.notModified++
	default:
		c.failf("%s: status %d", q.path(), h.status)
	}
	epoch, ok := etagEpoch(h.etag)
	switch {
	case !ok:
		c.failf("%s: unreadable ETag %q", q.path(), h.etag)
	case epoch < c.lastEpoch:
		c.failf("%s: epoch went back from %d to %d on one connection", q.path(), c.lastEpoch, epoch)
	default:
		c.lastEpoch = epoch
	}
	if c.tr != nil && c.reqs%sampleEvery == 0 {
		now := time.Now()
		c.tr.record(spanRef{}, int(c.reqs), "http.request", now.Add(-latency), now,
			"conn", int64(c.id), "status", int64(h.status), "bytes", int64(len(h.body)))
	}
	if h.status == http.StatusOK && c.reqs%sampleEvery == 0 && c.sampleBytes+len(h.body) <= maxSampleBytes {
		c.samples = append(c.samples, sample{q: q, epoch: epoch, body: append([]byte(nil), h.body...)})
		c.sampleBytes += len(h.body)
	}
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, ms(latency))
	}
}

// measurePhase runs the phase as a sequence of windows. In each, every
// client runs body until the window ends; between windows the clients
// rest while the run's speedometer is read. body is called once per
// window and client, so what a client must remember from one window to
// the next (its place in a sequence or a walk) lives outside it.
func measurePhase(r *run, clients []*client, length time.Duration, body func(c *client, end time.Time) error) ([]window, error) {
	every := time.Duration(r.sc.windowSeconds * float64(time.Second))
	var wins []window
	from := make([]int, len(clients))
	for end := time.Now().Add(length); time.Now().Before(end); {
		r.speed.read()
		for i, c := range clients {
			from[i] = len(c.lat)
		}
		var g group
		var w window
		c0 := readCounters()
		until := c0.t.Add(every)
		for _, c := range clients {
			c := c
			g.goFn(func() error { return body(c, until) })
		}
		err := g.wait()
		c1 := readCounters()
		if err != nil {
			return wins, err
		}
		for i, c := range clients {
			w.lat = append(w.lat, c.lat[from[i]:]...)
		}
		w.charge(len(w.lat), c0, c1)
		wins = append(wins, w)
	}
	return wins, nil
}

// finish folds the clients' observations into the run and verifies the
// sampled bodies against direct Snapshot lookups.
func (s *queryServer) finish(r *run) {
	for _, c := range s.clients {
		r.attempted += int(c.reqs)
		r.failed += c.failed
		for _, f := range c.fails {
			if len(r.wrong) < 5 {
				r.wrong = append(r.wrong, f)
			}
		}
		for _, sm := range c.samples {
			snap := s.snapshot(sm.epoch)
			if snap == nil {
				r.failf("%s: served from epoch %d, which was never published", sm.q.path(), sm.epoch)
				continue
			}
			if err := verifyBody(snap, sm.q, sm.body); err != nil {
				r.failf("%s at epoch %d: %v", sm.q.path(), sm.epoch, err)
			}
		}
		r.notes[fmt.Sprintf("conn%d", c.id)] = fmt.Sprintf("%d requests, %d not modified, %d bodies verified", c.reqs, c.notModified, len(c.samples))
	}
}

// The response shapes, as a client sees them.
type serviceBody struct {
	IP        string `json:"ip"`
	Port      uint16 `json:"port"`
	Proto     string `json:"proto"`
	ASN       uint32 `json:"asn"`
	FirstSeen int    `json:"first_seen"`
	LastSeen  int    `json:"last_seen"`
	Stale     int    `json:"stale"`
}

type listBody struct {
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	Count      int           `json:"count"`
	NextCursor string        `json:"next_cursor"`
	Services   []serviceBody `json:"services"`
}

// verifyBody checks one 200 body against the snapshot it was served from.
func verifyBody(snap *serve.Snapshot, q query, body []byte) error {
	switch q.kind {
	case qStats:
		var got struct {
			Epoch, Services, Hosts, Ports, Prefixes int
			ASNs                                    int `json:"asns"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		st := snap.Stats()
		if got.Epoch != st.Epoch || got.Services != st.Services || got.Hosts != st.Hosts ||
			got.Ports != st.Ports || got.Prefixes != st.Prefixes || got.ASNs != st.ASNs {
			return fmt.Errorf("stats %+v, snapshot says %+v", got, st)
		}
		return nil
	case qPorts:
		var got struct {
			Total int
			Ports []struct {
				Port     uint16
				Services int
			}
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want := snap.Ports()
		if got.Total != len(want) || len(got.Ports) != len(want) {
			return fmt.Errorf("%d ports, snapshot has %d", len(got.Ports), len(want))
		}
		for i, pc := range want {
			if got.Ports[i].Port != pc.Port || got.Ports[i].Services != pc.Services {
				return fmt.Errorf("port row %d is %+v, snapshot says %+v", i, got.Ports[i], pc)
			}
		}
		return nil
	}
	var got listBody
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var want []serve.Service
	var total int
	switch q.kind {
	case qHost:
		want = snap.Host(q.ip)
		total = len(want)
	case qPort:
		want, total = snap.Port(q.port, q.offset, q.limit)
	case qASN:
		want, total = snap.ASN(q.asn, q.offset, q.limit)
	default:
		want, total = snap.Prefix16(q.ip, q.offset, q.limit)
	}
	if got.Total != total || got.Offset != q.offset || got.Count != len(want) || len(got.Services) != len(want) {
		return fmt.Errorf("page total=%d offset=%d count=%d (%d services), snapshot says total=%d offset=%d count=%d",
			got.Total, got.Offset, got.Count, len(got.Services), total, q.offset, len(want))
	}
	for i, w := range want {
		g := got.Services[i]
		if g.IP != w.IP.String() || g.Port != w.Port || g.Proto != w.Proto.String() || g.ASN != uint32(w.ASN) ||
			g.FirstSeen != w.FirstSeen || g.LastSeen != w.LastSeen || g.Stale != w.Stale {
			return fmt.Errorf("service %d is %+v, snapshot says %+v", i, g, w)
		}
	}
	return nil
}

// --- query-point ---------------------------------------------------------

// pointRequest is one entry of the point workload's request table.
type pointRequest struct {
	q    query
	head []byte
}

// pointMix builds the request table and one seeded request sequence per
// connection: 70% /v1/host/{ip} with the hosts zipf-distributed, 10%
// /v1/stats, 10% /v1/ports, 10% /v1/port/{p}?limit=100 with the ports
// zipf-distributed by popularity; a fifth of all requests revalidate.
type pointMix struct {
	table []pointRequest
	seq   [][]uint32 // per connection: table index, top bit set to revalidate
}

const (
	revalidateBit = 1 << 31
	zipfExponent  = 1.1
	seqLength     = 1 << 18 // requests before a connection's sequence repeats
)

func newPointMix(seed int64, snap *serve.Snapshot, conns int) *pointMix {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	hostSet := make(map[asndb.IP]bool)
	for _, sv := range snap.Services() {
		hostSet[sv.IP] = true
	}
	hosts := make([]asndb.IP, 0, len(hostSet))
	for ip := range hostSet {
		hosts = append(hosts, ip)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	ports := append([]serve.PortCount(nil), snap.Ports()...)
	sort.SliceStable(ports, func(i, j int) bool { return ports[i].Services > ports[j].Services })

	m := &pointMix{}
	add := func(q query, target string) {
		m.table = append(m.table, pointRequest{q: q, head: requestHead(target)})
	}
	add(query{kind: qStats}, "/v1/stats")
	add(query{kind: qPorts}, "/v1/ports")
	firstHost := len(m.table)
	for _, ip := range hosts {
		q := query{kind: qHost, ip: ip}
		add(q, q.path())
	}
	firstPort := len(m.table)
	for _, pc := range ports {
		q := query{kind: qPort, port: pc.Port, limit: 100}
		add(q, q.path()+"?limit=100")
	}

	hostZipf := rand.NewZipf(rng, zipfExponent, 1, uint64(len(hosts)-1))
	portZipf := rand.NewZipf(rng, zipfExponent, 1, uint64(len(ports)-1))
	for c := 0; c < conns; c++ {
		seq := make([]uint32, seqLength)
		for i := range seq {
			var idx int
			switch p := rng.Float64(); {
			case p < 0.7:
				idx = firstHost + int(hostZipf.Uint64())
			case p < 0.8:
				idx = 0
			case p < 0.9:
				idx = 1
			default:
				idx = firstPort + int(portZipf.Uint64())
			}
			seq[i] = uint32(idx)
			if rng.Float64() < 0.2 {
				seq[i] |= revalidateBit
			}
		}
		m.seq = append(m.seq, seq)
	}
	return m
}

func (m *pointMix) at(conn, i int) (pointRequest, bool) {
	v := m.seq[conn][i%seqLength]
	return m.table[v&^revalidateBit], v&revalidateBit != 0
}

// closedLoop sends the connection's sequence back to back, from where
// the client stands in it, until the window ends.
func (m *pointMix) closedLoop(c *client, end time.Time) error {
	for ; ; c.pos++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return nil
		}
		req, reval := m.at(c.id, c.pos)
		if err := c.h.get(req.head, reval); err != nil {
			return err
		}
		c.observe(req.q, time.Since(t0))
	}
}

// openLoop sends the connection's sequence on a seeded Poisson schedule,
// whatever the server does, and times each request from when it was due.
// Go's timers are a millisecond coarse when the process is mostly idle,
// far more than a request takes, so the wait is a nanosleep system call.
func (m *pointMix) openLoop(c *client, rng *rand.Rand, rate float64, end time.Time) error {
	due := time.Now()
	for ; ; c.pos++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			return nil
		}
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake only sends early
		}
		c.late = append(c.late, ms(time.Since(due)))
		req, reval := m.at(c.id, c.pos)
		if err := c.h.get(req.head, reval); err != nil {
			return err
		}
		c.observe(req.q, time.Since(due))
	}
}

// startCommitter runs commitEvery in the background; the returned
// function stops it and waits.
func (s *queryServer) startCommitter(r *run) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.commitEvery(time.Duration(r.sc.commitEvery*float64(time.Second)), done)
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// resetCounts forgets the requests counted so far (a warm-up's).
func (s *queryServer) resetCounts() {
	for _, c := range s.clients {
		c.reqs, c.notModified, c.bodyBytes = 0, 0, 0
	}
}

func (s *queryServer) requests() (n int64) {
	for _, c := range s.clients {
		n += c.reqs
	}
	return n
}

// The bounded end-to-end numbers of query-point all come from a closed
// loop on nproc connections. An open loop at a fixed rate is the better
// model of independent users, and the traced run has one, but at a tenth
// of capacity its latency is mostly how fast an idle thread wakes, which
// on a shared machine moved fourfold between runs minutes apart while
// the closed loop moved by a fifth.
func runQueryPoint(r *run) error {
	s, err := timeSetups(r, func() (*queryServer, error) { return setupQueryServer(r, r.sc.pointPrefixes) }, (*queryServer).close)
	if err != nil {
		return err
	}
	defer s.close()
	mix := newPointMix(r.seed, s.pub.Current(), len(s.clients))
	stop := s.startCommitter(r)
	defer stop()
	if r.traced() {
		return s.tracedPoint(r, mix)
	}

	length := time.Duration(r.seconds * float64(time.Second))
	if _, err := s.pointClosed(r, mix, 0, length/20); err != nil {
		return err
	}
	s.resetCounts()
	heap := startHeapSampler()
	wire0 := s.wire.Load()
	wins, err := s.pointClosed(r, mix, seqLength/4, length)
	if err != nil {
		return err
	}
	r.metrics["heap_peak_mb"] = heap.peakMB()
	rateMetrics(wins, r.metrics)
	latencyMetrics(wins, false, r.metrics, r.notes)
	r.metrics["wire_kb_per_op"] = float64(s.wire.Load()-wire0) / 1024 / float64(s.requests())
	s.finish(r)
	return nil
}

func (s *queryServer) pointClosed(r *run, mix *pointMix, start int, length time.Duration) ([]window, error) {
	for _, c := range s.clients {
		c.begin(int(length.Seconds()*100000)+1000, start)
	}
	return measurePhase(r, s.clients, length, func(c *client, end time.Time) error {
		return mix.closedLoop(c, end)
	})
}

// pointOpen offers the scale's open-loop rate, split evenly over the
// connections, and also returns how late the generator ran at p99.
func (s *queryServer) pointOpen(r *run, mix *pointMix, start int, length time.Duration) ([]window, float64, error) {
	perConn := r.sc.openLoopRate / float64(len(s.clients))
	rngs := make([]*rand.Rand, len(s.clients))
	for i, c := range s.clients {
		c.begin(int(length.Seconds()*perConn*2)+1000, start)
		c.late = make([]float64, 0, cap(c.lat))
		rngs[i] = rand.New(rand.NewSource(r.seed + int64(c.id)))
	}
	wins, err := measurePhase(r, s.clients, length, func(c *client, end time.Time) error {
		return mix.openLoop(c, rngs[c.id], perConn, end)
	})
	var late []float64
	for _, c := range s.clients {
		late = append(late, c.late...)
	}
	p99 := math.NaN()
	if len(late) > 0 {
		p99 = quantile(sortedCopy(late), 0.99)
	}
	return wins, p99, err
}

// --- query-page ----------------------------------------------------------

// pageWalks lists the postings lists the page workload walks, in
// rotation: every port, ASN and /16 prefix holding at least the scale's
// minimum of services, so that most requests return a full page.
func pageWalks(snap *serve.Snapshot, minServices int) []query {
	ports := make(map[uint16]int)
	asns := make(map[asndb.ASN]int)
	prefixes := make(map[asndb.IP]int)
	for _, sv := range snap.Services() {
		ports[sv.Port]++
		asns[sv.ASN]++
		prefixes[sv.IP&asndb.Mask(16)]++
	}
	var walks []query
	for p, n := range ports {
		if n >= minServices {
			walks = append(walks, query{kind: qPort, port: p})
		}
	}
	for a, n := range asns {
		if n >= minServices {
			walks = append(walks, query{kind: qASN, asn: a})
		}
	}
	for ip, n := range prefixes {
		if n >= minServices {
			walks = append(walks, query{kind: qPrefix, ip: ip})
		}
	}
	sort.Slice(walks, func(i, j int) bool {
		a, b := walks[i], walks[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.port != b.port {
			return a.port < b.port
		}
		if a.asn != b.asn {
			return a.asn < b.asn
		}
		return a.ip < b.ip
	})
	return walks
}

const pageLimit = 1000

// listPages returns how many pages a walk of q's postings list asks for.
func listPages(snap *serve.Snapshot, q query) int {
	var total int
	switch q.kind {
	case qPort:
		_, total = snap.Port(q.port, 0, 0)
	case qASN:
		_, total = snap.ASN(q.asn, 0, 0)
	default:
		_, total = snap.Prefix16(q.ip, 0, 0)
	}
	return (total + pageLimit - 1) / pageLimit
}

// splitWalks deals the lists out to n connections, longest first, each
// to the connection with the fewest pages so far. Connections then walk
// disjoint lists of about equal length, so between two requests for one
// page every other page of every connection is asked for once: with
// more pages in all than the server's query cache holds, none hits.
func splitWalks(snap *serve.Snapshot, walks []query, n int) (shares [][]query, pages int) {
	sizes := make(map[query]int, len(walks))
	for _, q := range walks {
		sizes[q] = listPages(snap, q)
		pages += sizes[q]
	}
	byLength := append([]query(nil), walks...)
	sort.SliceStable(byLength, func(i, j int) bool { return sizes[byLength[i]] > sizes[byLength[j]] })
	shares = make([][]query, n)
	load := make([]int, n)
	for _, q := range byLength {
		least := 0
		for i := range load {
			if load[i] < load[least] {
				least = i
			}
		}
		shares[least] = append(shares[least], q)
		load[least] += sizes[q]
	}
	return shares, pages
}

// nextCursor extracts the resume token from a list body. It sits before
// the services array, so only the head of the body is searched.
func nextCursor(body []byte) []byte {
	key := []byte(`"next_cursor":"`)
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	i := bytes.Index(head, key)
	if i < 0 {
		return nil
	}
	rest := head[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return nil
}

// pageWalker walks its lists round and round, first page by limit, the
// rest by the server's cursor, and keeps its place between windows.
type pageWalker struct {
	walks []query
	next  int    // the list to walk once the current one ends
	q     query  // the page about to be asked for
	base  string // its list's URL with the limit
	head  []byte // its request; empty when a new list must be begun
}

func (p *pageWalker) walk(c *client, end time.Time) error {
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return nil
		}
		if len(p.head) == 0 {
			p.q = p.walks[p.next%len(p.walks)]
			p.next++
			p.q.limit = pageLimit
			p.base = p.q.path() + fmt.Sprintf("?limit=%d", pageLimit)
			p.head = append(p.head, requestHead(p.base)...)
		}
		if err := c.h.get(p.head, false); err != nil {
			return err
		}
		c.observe(p.q, time.Since(t0))
		p.head = p.head[:0]
		if c.h.status != http.StatusOK {
			continue
		}
		if cur := nextCursor(c.h.body); cur != nil {
			p.q.offset += pageLimit
			p.head = append(p.head, "GET "...)
			p.head = append(p.head, p.base...)
			p.head = append(p.head, "&cursor="...)
			p.head = append(p.head, cur...)
			p.head = append(p.head, " HTTP/1.1\r\nHost: gpsbench\r\n"...)
		}
	}
}

func runQueryPage(r *run) error {
	s, err := timeSetups(r, func() (*queryServer, error) { return setupQueryServer(r, r.sc.pagePrefixes) }, (*queryServer).close)
	if err != nil {
		return err
	}
	defer s.close()
	walks := pageWalks(s.pub.Current(), r.sc.minPageServices)
	if len(walks) < len(s.clients) {
		return fmt.Errorf("seed %d: %d postings lists hold %d services, fewer than connections", r.seed, len(walks), r.sc.minPageServices)
	}
	shares, pages := splitWalks(s.pub.Current(), walks, len(s.clients))
	r.notes["walks"] = fmt.Sprintf("%d postings lists of at least %d services, %d pages a rotation", len(walks), r.sc.minPageServices, pages)
	if r.traced() {
		return s.tracedPage(r, shares)
	}

	length := time.Duration(r.seconds * float64(time.Second))
	if _, err := s.pageClosed(r, shares, length/20); err != nil {
		return err
	}
	s.resetCounts()
	heap := startHeapSampler()
	wire0 := s.wire.Load()
	wins, err := s.pageClosed(r, shares, length)
	if err != nil {
		return err
	}
	r.metrics["heap_peak_mb"] = heap.peakMB()
	rateMetrics(wins, r.metrics)
	latencyMetrics(wins, false, r.metrics, r.notes)
	r.metrics["wire_kb_per_op"] = float64(s.wire.Load()-wire0) / 1024 / float64(s.requests())
	s.finish(r)
	return nil
}

func (s *queryServer) pageClosed(r *run, shares [][]query, length time.Duration) ([]window, error) {
	walkers := make([]pageWalker, len(s.clients))
	for i, c := range s.clients {
		c.begin(int(length.Seconds()*50000)+1000, 0)
		walkers[i].walks = shares[c.id]
	}
	return measurePhase(r, s.clients, length, func(c *client, end time.Time) error {
		return walkers[c.id].walk(c, end)
	})
}
