package main

import (
	"net"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// counters is one reading of the process-wide clocks a window is charged
// against: wall time, user+system CPU and the heap allocation totals.
// Client and server share the process, so every per-op cost below is the
// cost of both sides together.
type counters struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return counters{
		t:       time.Now(),
		cpu:     cpuTime(),
		mallocs: s[0].Value.Uint64(),
		bytes:   s[1].Value.Uint64(),
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse returns the bytes in in-use heap spans (MemStats.HeapInuse)
// without stopping the world.
func heapInuse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// window is one statistical unit of a measured section: a repetition of a
// sequential workload, or a fixed slice of wall time of a concurrent one.
// Every rate is computed per window and reported as the median across
// windows, so a transient neighbour on the machine costs one window, not
// the run.
type window struct {
	ops     int
	busy    time.Duration // time ops were in flight
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	lat     []float64 // ms per op
}

// charge adds one op (or one slice of concurrent ops) bracketed by two
// counter readings.
func (w *window) charge(ops int, c0, c1 counters) {
	w.ops += ops
	w.busy += c1.t.Sub(c0.t)
	w.cpu += c1.cpu - c0.cpu
	w.mallocs += c1.mallocs - c0.mallocs
	w.bytes += c1.bytes - c0.bytes
}

// timeOp runs op and charges it to w as one operation.
func (w *window) timeOp(op func()) time.Duration {
	c0 := readCounters()
	op()
	c1 := readCounters()
	w.charge(1, c0, c1)
	d := c1.t.Sub(c0.t)
	w.lat = append(w.lat, ms(d))
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateMetrics reports the per-op costs of a measured section: each is
// the median of the per-window values.
func rateMetrics(ws []window, out map[string]float64) {
	var thr, cpu, allocs, kb []float64
	for _, w := range ws {
		if w.ops == 0 || w.busy <= 0 {
			continue
		}
		n := float64(w.ops)
		thr = append(thr, n/w.busy.Seconds())
		cpu = append(cpu, ms(w.cpu)/n)
		allocs = append(allocs, float64(w.mallocs)/n)
		kb = append(kb, float64(w.bytes)/1024/n)
	}
	out["throughput_ops_s"] = median(thr)
	out["cpu_ms_per_op"] = median(cpu)
	out["allocs_per_op"] = median(allocs)
	out["alloc_kb_per_op"] = median(kb)
}

// latencyMetrics reports the median and tail op latency. Pooled, every
// window's samples form one distribution (sequential workloads: tens of
// samples in all). Otherwise the quantiles are taken per window and the
// median across windows is reported (request workloads: thousands of
// samples per window, and one stalled window must not own the tail).
func latencyMetrics(ws []window, pooled bool, out map[string]float64, notes map[string]string) {
	var p50s, tails []float64
	var all []float64
	samples := 0
	for _, w := range ws {
		samples += len(w.lat)
		if pooled {
			all = append(all, w.lat...)
			continue
		}
		if len(w.lat) == 0 {
			continue
		}
		s := sortedCopy(w.lat)
		p50s = append(p50s, quantile(s, 0.5))
		tails = append(tails, quantile(s, tailQuantile(len(s))))
	}
	var q float64
	if pooled {
		if len(all) == 0 {
			return
		}
		s := sortedCopy(all)
		q = tailQuantile(len(s))
		out["latency_p50_ms"] = quantile(s, 0.5)
		out["latency_tail_ms"] = quantile(s, q)
	} else {
		if len(p50s) == 0 {
			return
		}
		q = tailQuantile(samples / len(p50s))
		out["latency_p50_ms"] = median(p50s)
		out["latency_tail_ms"] = median(tails)
	}
	notes["latency_tail_percentile"] = strconv.FormatFloat(100*q, 'f', 1, 64)
	notes["latency_samples"] = strconv.Itoa(samples)
}

// heapSampler records the peak in-use heap of a measured section.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapInuse()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := heapInuse(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	if v := heapInuse(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// countingListener counts every byte that crosses the connections it
// accepts, in both directions: the benchmark's view of a layer's wire
// cost, taken without touching the layer.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
	tap   *workerTap // nil unless the run is traced
}

// listenCounting listens on a loopback port, adding every byte its
// connections carry to bytes.
func listenCounting(bytes *atomic.Int64) (*countingListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: lis, bytes: bytes}, nil
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: l.bytes, tap: l.tap}, nil
}

func (l *countingListener) addr() string { return l.Listener.Addr().String() }

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
	tap   *workerTap
}

// workerTap timestamps, from the bench's two footholds in a worker, the
// ends of each shard epoch as it runs live: the worker asking the
// bench's World for the epoch's universe, and its next write (the
// result frame) leaving through the bench's listener.
type workerTap struct {
	mu    sync.Mutex
	asked []time.Time
	wrote []time.Time
}

func (t *workerTap) note(events *[]time.Time) {
	now := time.Now()
	t.mu.Lock()
	*events = append(*events, now)
	t.mu.Unlock()
}

// shardEpochs returns, for the shard epochs the worker began within
// [from, to], when each began and when its result left.
func (t *workerTap) shardEpochs(from, to time.Time) (began, left []time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.asked {
		if a.Before(from) || a.After(to) {
			continue
		}
		for _, w := range t.wrote {
			if !w.Before(a) {
				began, left = append(began, a), append(left, w)
				break
			}
		}
	}
	return began, left
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.tap != nil {
		c.tap.note(&c.tap.wrote)
	}
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// group runs goroutines and waits for them; the first error wins.
type group struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

func (g *group) goFn(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

func (g *group) wait() error {
	g.wg.Wait()
	return g.err
}
