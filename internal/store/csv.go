// Package store writes the files GPS moves and keeps. The real pipeline
// uploads its seed scan to BigQuery and downloads the predictions list
// back to the scanning host (Figure 1); WriteDatasetCSV and
// WritePredictionsCSV write those two files, and CountingWriter counts
// their bytes for Table 2's upload/download accounting. WriteCurveCSV
// exports a coverage curve, the raw series of the evaluation's figures.
// AppendInterned and ReadStringTable are the interned feature-set table
// the GPSC checkpoint stores its known records' banners in.
package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

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
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%d=%s", uint8(v.Key), escapeFeat(v.Val))
	}
	return strings.Join(parts, "|")
}

func escapeFeat(v string) string {
	v = strings.ReplaceAll(v, "%", "%25")
	v = strings.ReplaceAll(v, "|", "%7C")
	return strings.ReplaceAll(v, "=", "%3D")
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
