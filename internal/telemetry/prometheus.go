package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format version this
// package writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo emits the registry in Prometheus text format: families sorted
// by name, instances by label values, histograms as cumulative
// <name>_bucket{le=...} series plus _sum and _count. Scraping takes the
// registration mutex briefly to snapshot the family list; it never
// blocks an Inc/Observe.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, m := range f.sortedInstances() {
			writeMetric(cw, f, m)
		}
	}
	err := cw.w.(*bufio.Writer).Flush()
	return cw.n, err
}

func writeMetric(w io.Writer, f *family, m *metric) {
	switch f.kind {
	case KindCounter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labelBlock(f.labelKeys, m.labelVals), m.count.Load())
	case KindGauge:
		v := math.Float64frombits(m.bits.Load())
		if m.gaugeFn != nil {
			v = m.gaugeFn()
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelBlock(f.labelKeys, m.labelVals), formatFloat(v))
	case KindHistogram:
		var cum uint64
		for i := range m.bucketN {
			cum += m.bucketN[i].Load()
			le := "+Inf"
			if i < len(f.buckets) {
				le = formatFloat(f.buckets[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelBlockLe(f.labelKeys, m.labelVals, le), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelBlock(f.labelKeys, m.labelVals),
			formatFloat(math.Float64frombits(m.sumBits.Load())))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelBlock(f.labelKeys, m.labelVals), cum)
	}
}

// labelBlock renders {k="v",...}; empty when there are no labels.
func labelBlock(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelBlockLe renders the label block with the histogram le label
// appended last.
func labelBlockLe(keys, vals []string, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Handler serves the registry on GET (or HEAD) — the /v1/metricz
// endpoint, mountable on any mux.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET or HEAD only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WriteTo(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
