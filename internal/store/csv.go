// Package store persists GPS artifacts: datasets (scan results), the
// predictions list, and coverage curves. The real GPS pipeline moves these
// as files between the scanning host and BigQuery (Figure 1); the byte
// counts this package reports feed Table 2's upload/download accounting.
//
// Two formats are provided: CSV for interoperability (what the real
// pipeline uploads to BigQuery) and a compact length-prefixed binary
// format with a string table for local storage.
package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gps/internal/asndb"
	"gps/internal/dataset"
	"gps/internal/features"
	"gps/internal/metrics"
	"gps/internal/predict"
)

// csvHeader is the dataset CSV column set.
var csvHeader = []string{"ip", "port", "protocol", "asn", "ttl", "features"}

// WriteDatasetCSV writes records as CSV. Feature sets are encoded as
// "key=value" pairs joined with "|", with keys in Table-1 order so output
// is deterministic.
func WriteDatasetCSV(w io.Writer, d *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, r := range d.Records {
		row[0] = r.IP.String()
		row[1] = strconv.Itoa(int(r.Port))
		row[2] = r.Proto.String()
		row[3] = strconv.FormatUint(uint64(r.ASN), 10)
		row[4] = strconv.Itoa(int(r.TTL))
		row[5] = encodeFeats(r.Feats)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func encodeFeats(s features.Set) string {
	if len(s) == 0 {
		return ""
	}
	vals := s.Values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%d=%s", uint8(v.Key), escapeFeat(v.Val))
	}
	return strings.Join(parts, "|")
}

func escapeFeat(v string) string {
	v = strings.ReplaceAll(v, "%", "%25")
	v = strings.ReplaceAll(v, "|", "%7C")
	return strings.ReplaceAll(v, "=", "%3D")
}

func unescapeFeat(v string) string {
	v = strings.ReplaceAll(v, "%3D", "=")
	v = strings.ReplaceAll(v, "%7C", "|")
	return strings.ReplaceAll(v, "%25", "%")
}

func decodeFeats(s string) (features.Set, error) {
	if s == "" {
		return nil, nil
	}
	out := make(features.Set)
	for _, part := range strings.Split(s, "|") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("store: bad feature %q", part)
		}
		key, err := strconv.ParseUint(part[:eq], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("store: bad feature key %q: %v", part[:eq], err)
		}
		out[features.Key(key)] = unescapeFeat(part[eq+1:])
	}
	return out, nil
}

// ReadDatasetCSV parses a dataset written by WriteDatasetCSV. Metadata
// fields (SpaceSize and so on) are not carried by CSV; callers needing
// them should use the binary format.
func ReadDatasetCSV(r io.Reader) (*dataset.Dataset, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if len(head) != len(csvHeader) || head[0] != "ip" {
		return nil, fmt.Errorf("store: unexpected CSV header %v", head)
	}
	d := &dataset.Dataset{Name: "csv"}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ip, err := asndb.ParseIP(row[0])
		if err != nil {
			return nil, err
		}
		port, err := strconv.ParseUint(row[1], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("store: bad port %q: %v", row[1], err)
		}
		asn, err := strconv.ParseUint(row[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("store: bad ASN %q: %v", row[3], err)
		}
		ttl, err := strconv.ParseUint(row[4], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("store: bad TTL %q: %v", row[4], err)
		}
		feats, err := decodeFeats(row[5])
		if err != nil {
			return nil, err
		}
		d.Records = append(d.Records, dataset.Record{
			IP:    ip,
			Port:  uint16(port),
			Proto: features.ParseProtocol(row[2]),
			ASN:   asndb.ASN(asn),
			TTL:   uint8(ttl),
			Feats: feats,
		})
	}
	return d, nil
}

// WritePredictionsCSV writes the ordered predictions list: the artifact
// GPS downloads from BigQuery to the scanning host (Table 2's "PRS
// Download", 547 GB in the paper).
func WritePredictionsCSV(w io.Writer, preds []predict.Prediction) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ip", "port", "probability"}); err != nil {
		return err
	}
	for _, p := range preds {
		err := cw.Write([]string{
			p.IP.String(),
			strconv.Itoa(int(p.Port)),
			strconv.FormatFloat(p.P, 'g', -1, 64),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPredictionsCSV parses WritePredictionsCSV output.
func ReadPredictionsCSV(r io.Reader) ([]predict.Prediction, error) {
	cr := csv.NewReader(r)
	if _, err := cr.Read(); err != nil {
		return nil, err
	}
	var out []predict.Prediction
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		ip, err := asndb.ParseIP(row[0])
		if err != nil {
			return nil, err
		}
		port, err := strconv.ParseUint(row[1], 10, 16)
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, predict.Prediction{IP: ip, Port: uint16(port), P: p})
	}
}

// WriteCurveCSV writes a coverage curve as CSV series data: the raw
// material of every figure in the evaluation.
func WriteCurveCSV(w io.Writer, name string, c metrics.Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "probes", "scans", "found", "frac_all", "frac_norm", "precision"}); err != nil {
		return err
	}
	for _, p := range c {
		err := cw.Write([]string{
			name,
			strconv.FormatUint(p.Probes, 10),
			strconv.FormatFloat(p.ScansUnits, 'g', 8, 64),
			strconv.Itoa(p.Found),
			strconv.FormatFloat(p.FracAll, 'g', 8, 64),
			strconv.FormatFloat(p.FracNorm, 'g', 8, 64),
			strconv.FormatFloat(p.Precision, 'g', 8, 64),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CountingWriter wraps a writer and counts bytes, for transfer accounting.
type CountingWriter struct {
	W io.Writer
	N uint64
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += uint64(n)
	return n, err
}

// sortRecords orders records by (IP, port) for deterministic output.
func sortRecords(recs []dataset.Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key().Compare(recs[j].Key()) < 0 })
}
