// Command gpseval regenerates the paper's tables and figures against the
// synthetic universe. Each experiment id corresponds to one table or
// figure of the evaluation (see the experiment index in README.md).
//
// Usage:
//
//	gpseval [-scale small|default] [-seed N] <experiment>...
//	gpseval all
//
// Experiments: table1 table2 table3 table4 fig2a fig2b fig2c fig2d fig3
// fig4 fig5 fig6 tga recsys appb limits churn props continuous shards
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"gps/internal/experiments"
	"gps/internal/metrics"
	"gps/internal/store"
)

func main() {
	var (
		scale = flag.String("scale", "small", "experiment scale: small | default")
		seed  = flag.Int64("seed", 99, "universe seed")
		out   = flag.String("o", "", "directory to write figure series as CSV (optional)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gpseval [-scale small|default] [-seed N] <experiment>... | all")
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale(*seed)
	case "default":
		sc = experiments.DefaultScale(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experimentIDs
	}
	for _, id := range ids {
		if !slices.Contains(experimentIDs, id) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	fmt.Printf("building %s-scale universe (seed %d)...\n", sc.Name, *seed)
	s := experiments.NewSetup(sc)
	fmt.Printf("universe: %d hosts, %d addresses; censys snapshot %d services, all-port snapshot %d services\n\n",
		s.Universe.NumHosts(), s.Universe.SpaceSize(), s.Censys.NumServices(), s.LZR.NumServices())
	for _, id := range ids {
		run(s, id, *out)
	}
}

// experimentIDs are the experiments run accepts, in the order "all" runs
// them.
var experimentIDs = []string{"table1", "table2", "table3", "table4",
	"fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "fig5", "fig6",
	"tga", "recsys", "appb", "limits", "churn", "props", "continuous", "shards"}

// writeSeries exports one curve as CSV under dir. A series that cannot
// be written ends the run with exit status 1.
func writeSeries(dir, file, name string, c metrics.Curve) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, file)
	if err := writeCurveFile(path, name, c); err != nil {
		fmt.Fprintln(os.Stderr, "gpseval:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func writeCurveFile(path, name string, c metrics.Curve) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.WriteCurveCSV(f, name, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(s *experiments.Setup, id string, out string) {
	space := s.Universe.SpaceSize()
	switch id {
	case "table1":
		fmt.Println(experiments.Table1(s).Render())
	case "table2":
		fmt.Println(experiments.Table2(s).Table(space).Render())
	case "table3":
		fmt.Println(experiments.Table3(s).Table(5).Render())
	case "table4":
		fmt.Println(experiments.Table4(s).Render())
	case "fig2a", "fig2b", "fig2c", "fig2d":
		v := experiments.Fig2Variant{
			Censys:     id == "fig2a" || id == "fig2c",
			Normalized: id == "fig2c" || id == "fig2d",
		}
		r := experiments.Figure2(s, v)
		fmt.Println(r.Figure().Render())
		writeSeries(out, id+"_gps.csv", "gps", r.GPS)
		writeSeries(out, id+"_exhaustive.csv", "exhaustive", r.Exhaustive)
		writeSeries(out, id+"_oracle.csv", "oracle", r.Oracle)
	case "fig3":
		r := experiments.Figure3(s)
		fmt.Println(r.Figure().Render())
		writeSeries(out, "fig3_gps.csv", "gps", r.GPS)
		writeSeries(out, "fig3_exhaustive.csv", "exhaustive", r.Exhaustive)
	case "fig4":
		r := experiments.Figure4(s)
		for _, t := range r.Tables(space) {
			fmt.Println(t.Render())
		}
		fmt.Println(r.FigureC().Render())
		writeSeries(out, "fig4c_gps.csv", "gps", r.GPSCurve)
		writeSeries(out, "fig4c_xgboost.csv", "xgboost", r.XGBCurve)
		writeSeries(out, "fig4c_exhaustive.csv", "exhaustive", r.Exhaustive)
	case "fig5":
		fmt.Println(experiments.Figure5(s, nil).Figure().Render())
	case "fig6":
		for _, f := range experiments.Figure6(s, nil).Figures() {
			fmt.Println(f.Render())
		}
	case "tga":
		fmt.Println(experiments.TGAExperiment(s).Table().Render())
	case "recsys":
		fmt.Println(experiments.RecommenderExperiment(s).Table().Render())
	case "appb":
		fmt.Println(experiments.AppendixB(s).Table().Render())
	case "limits":
		fmt.Println(experiments.Section7Limits(s).Table().Render())
	case "churn":
		fmt.Println(experiments.ChurnStudy(s).Table().Render())
	case "props":
		fmt.Println(experiments.Section4Properties(s).Table().Render())
	case "continuous":
		r := experiments.Continuous(s, experiments.ContinuousEpochs)
		fmt.Println(r.Table().Render())
		writeSeries(out, "continuous.csv", "continuous", r.Curve(space))
	case "shards":
		fmt.Println(experiments.ShardsExperiment(s, nil).Table().Render())
	default:
		panic("gpseval: experimentIDs names " + id + ", which run has no case for")
	}
}
