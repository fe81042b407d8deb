package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gps"
	"gps/internal/asndb"
	"gps/internal/engine"
	"gps/internal/features"
	"gps/internal/predict"
	"gps/internal/probmodel"
	"gps/internal/scanner"
	"gps/internal/store"
)

// Table1 reproduces the feature dimensionality census: the number of
// unique values each of GPS's 25 features takes in the Censys-style
// ground-truth dataset.
func Table1(s *Setup) Table {
	uniq := make(map[features.Key]map[string]bool)
	for _, k := range features.AllKeys() {
		uniq[k] = make(map[string]bool)
	}
	for _, r := range s.Censys.Records {
		for _, v := range r.Feats {
			uniq[v.Key][v.Val] = true
		}
		uniq[features.KeySubnet16][asndb.Subnet16(r.IP)] = true
		uniq[features.KeyASN][r.ASN.String()] = true
	}
	t := Table{
		Title:  "Table 1: GPS features and their dimensionality (Censys ground truth)",
		Header: []string{"feature", "# unique values"},
	}
	for _, k := range features.AllKeys() {
		t.Rows = append(t.Rows, []string{k.String(), fmt.Sprintf("%d", len(uniq[k]))})
	}
	return t
}

// Table2Result is the performance breakdown of Table 2: where GPS spends
// bandwidth, computation, and wall time, and how much the parallel engine
// buys over a single core.
type Table2Result struct {
	SeedProbes    uint64
	PriorsProbes  uint64
	PredictProbes uint64
	// SeedScanTime/PriorsScanTime/PredictScanTime are modeled wall times
	// at the paper's scan rates (1.5 Gb/s seed, 50 Mb/s prediction scans).
	SeedScanTime    time.Duration
	PriorsScanTime  time.Duration
	PredictScanTime time.Duration
	// SingleCore and Parallel are measured compute times for the
	// prediction pipeline (model + priors list + MPF + predictions).
	SingleCore time.Duration
	Parallel   time.Duration
	Speedup    float64
	// RecordsProcessed/PairsShuffled approximate Table 2's "data
	// processed/shuffled" columns.
	RecordsProcessed uint64
	PairsShuffled    uint64
	Predictions      int
	// UploadBytes/DownloadBytes are the serialized sizes of the seed
	// scan (uploaded to the compute tier) and the predictions list
	// (downloaded to the scanning host); Table 2's transfer legs.
	UploadBytes   uint64
	DownloadBytes uint64
	UploadTime    time.Duration
	DownloadTime  time.Duration
}

// transferRate models the paper's observed 18-30 MB/s up/download
// bandwidth to the serverless platform.
const transferRate = 25e6 // bytes per second

// Table2 measures the full breakdown on the LZR-style dataset with a
// mid-size seed and /16 step, running the computation twice: once on a
// single core (the paper's 9-day single-core figure) and once with full
// parallelism (the paper's 13-minute BigQuery figure).
func Table2(s *Setup) *Table2Result {
	seedSet, _ := SplitEval(s.LZR, s.Scale.SeedMid, true, 31)
	res := &Table2Result{}

	single, err := gps.Run(s.Universe, seedSet, gps.Config{StepBits: 16, Seed: 31, Workers: 1})
	if err != nil {
		panic(err)
	}
	res.SingleCore = single.Timings.Compute()

	par, err := gps.Run(s.Universe, seedSet, gps.Config{StepBits: 16, Seed: 31})
	if err != nil {
		panic(err)
	}
	res.Parallel = par.Timings.Compute()
	if res.Parallel > 0 {
		res.Speedup = float64(res.SingleCore) / float64(res.Parallel)
	}

	res.SeedProbes = seedSet.CollectionProbes
	res.PriorsProbes = par.PriorsProbes
	res.PredictProbes = par.PredictProbes
	res.Predictions = len(par.Predictions)
	res.RecordsProcessed, res.PairsShuffled = par.Model.Stats()

	seedRate := scanner.Rate{Gbps: 1.5}
	scanRate := scanner.Rate{Gbps: 0.05}
	res.SeedScanTime = seedRate.Duration(res.SeedProbes)
	res.PriorsScanTime = scanRate.Duration(res.PriorsProbes)
	res.PredictScanTime = scanRate.Duration(res.PredictProbes)

	// Transfer legs: the seed scan is uploaded as CSV (what BigQuery
	// ingests), the predictions list is downloaded as CSV.
	var up store.CountingWriter
	up.W = io.Discard
	if err := store.WriteDatasetCSV(&up, seedSet); err != nil {
		panic(err)
	}
	res.UploadBytes = up.N
	var down store.CountingWriter
	down.W = io.Discard
	if err := store.WritePredictionsCSV(&down, par.Predictions); err != nil {
		panic(err)
	}
	res.DownloadBytes = down.N
	res.UploadTime = time.Duration(float64(res.UploadBytes) / transferRate * float64(time.Second))
	res.DownloadTime = time.Duration(float64(res.DownloadBytes) / transferRate * float64(time.Second))
	return res
}

// Table returns the renderable form.
func (r *Table2Result) Table(space uint64) Table {
	scans := func(p uint64) string { return fmt.Sprintf("%.3f", float64(p)/float64(space)) }
	return Table{
		Title:  "Table 2: GPS performance breakdown",
		Header: []string{"stage", "probes (100% scans)", "modeled scan wall-time", "measured compute"},
		Rows: [][]string{
			{"seed scan (1.5 Gb/s)", scans(r.SeedProbes), r.SeedScanTime.Round(time.Second).String(), "-"},
			{"seed upload (25 MB/s)", fmt.Sprintf("%d B", r.UploadBytes), r.UploadTime.Round(time.Millisecond).String(), "-"},
			{"priors scan (50 Mb/s)", scans(r.PriorsProbes), r.PriorsScanTime.Round(time.Second).String(), "-"},
			{"predictions download (25 MB/s)", fmt.Sprintf("%d B", r.DownloadBytes), r.DownloadTime.Round(time.Millisecond).String(), "-"},
			{"prediction scan (50 Mb/s)", scans(r.PredictProbes), r.PredictScanTime.Round(time.Second).String(), "-"},
			{"prediction compute (1 core)", "-", "-", r.SingleCore.Round(time.Millisecond).String()},
			{"prediction compute (parallel)", "-", "-", r.Parallel.Round(time.Millisecond).String()},
		},
		Notes: []string{
			fmt.Sprintf("parallel speedup %.1fx on %d predictions; %d records processed, %d pairs shuffled",
				r.Speedup, r.Predictions, r.RecordsProcessed, r.PairsShuffled),
			"paper: single core 9d9h vs BigQuery 13 min; scanning dominated by the seed scan",
		},
	}
}

// Table3Result carries the most-predictive-feature analysis of §6.6.
type Table3Result struct {
	Rows []Table3Row
	// UniqueRules is the size of the MPF list (paper: 402K values);
	// UniqueKinds the distinct feature-tuple shapes (paper: 64).
	UniqueRules int
	UniqueKinds int
}

// Table3Row is one feature-tuple kind with the share of (normalized)
// services it is the most predictive tuple for.
type Table3Row struct {
	Kind     probmodel.TupleKind
	Services float64
	Norm     float64
}

// Table3 identifies which feature tuples GPS selects as most predictive:
// for every seed service, the argmax condition's shape, weighted by
// Equation 1 and Equation 2.
func Table3(s *Setup) *Table3Result {
	seedSet, _ := SplitEval(s.Censys, s.Scale.SeedMid, false, 33)
	hosts := seedSet.ByHost()
	m := probmodel.Build(probmodel.Config{}, hosts)
	mpf := predict.BuildMPF(m, hosts, engine.Config{})

	portCount := make(map[uint16]int)
	for _, r := range seedSet.Records {
		portCount[r.Port]++
	}
	type agg struct {
		services int
		norm     float64
	}
	kinds := make(map[probmodel.TupleKind]*agg)
	total := 0
	for _, h := range hosts {
		if len(h.Records) < 2 {
			continue
		}
		for _, ra := range h.Records {
			best, _, ok := m.BestCondForHost(h, ra.Port)
			if !ok {
				continue
			}
			k := best.Kind()
			a := kinds[k]
			if a == nil {
				a = &agg{}
				kinds[k] = a
			}
			a.services++
			a.norm += 1 / float64(portCount[ra.Port])
			total++
		}
	}
	res := &Table3Result{UniqueRules: mpf.Len(), UniqueKinds: len(kinds)}
	numPorts := len(portCount)
	for k, a := range kinds {
		res.Rows = append(res.Rows, Table3Row{
			Kind:     k,
			Services: float64(a.services) / float64(max(total, 1)),
			Norm:     a.norm / float64(max(numPorts, 1)),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Norm > res.Rows[j].Norm })
	return res
}

// Table returns the top-k renderable rows.
func (r *Table3Result) Table(k int) Table {
	t := Table{
		Title:  "Table 3: most predictive feature tuples",
		Header: []string{"feature tuple", "% normalized services", "% services"},
		Notes: []string{
			fmt.Sprintf("%d unique most-predictive rules across %d tuple kinds (paper: 402K rules, 64 kinds)",
				r.UniqueRules, r.UniqueKinds),
		},
	}
	for i, row := range r.Rows {
		if i >= k {
			break
		}
		t.Rows = append(t.Rows, []string{row.Kind.String(), fmtPct(row.Norm), fmtPct(row.Services)})
	}
	return t
}

// Table4 reproduces the Appendix C network-feature sweep: configure the
// model with every subnet size /16-/23 plus the ASN, and count which
// network feature is most predictive per seed service. The paper finds
// the ASN (36%) and /16 (20%) dominate.
func Table4(s *Setup) Table {
	seedSet, _ := SplitEval(s.LZR, s.Scale.SeedSmall, true, 35)
	hosts := seedSet.ByHost()
	m := probmodel.Build(probmodel.Config{
		NetKeys: features.CandidateNetworkKeys(),
		// Network families only: isolate the network features.
		Families: probmodel.FamilySet(0).With(probmodel.FamilyTN),
	}, hosts)

	counts := make(map[features.Key]int)
	total := 0
	for _, h := range hosts {
		if len(h.Records) < 2 {
			continue
		}
		for _, ra := range h.Records {
			best, _, ok := m.BestCondForHost(h, ra.Port)
			if !ok {
				continue
			}
			counts[best.NetKey]++
			total++
		}
	}
	return table4(counts, total)
}

// table4 renders the per-feature counts, most services first and ties in
// key order.
func table4(counts map[features.Key]int, total int) Table {
	type row struct {
		key features.Key
		n   int
	}
	var rows []row
	for k, n := range counts {
		rows = append(rows, row{k, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].n > rows[j].n || rows[i].n == rows[j].n && rows[i].key < rows[j].key
	})
	t := Table{
		Title:  "Table 4: network features most predictive of services (Appendix C)",
		Header: []string{"network feature", "% services most predictive"},
		Notes:  []string{"paper: ASN 36%, /16 20%, then /18, /19, /17, /20, /21, /22, /23"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.key.String(), fmtPct(float64(r.n) / float64(max(total, 1)))})
	}
	return t
}
