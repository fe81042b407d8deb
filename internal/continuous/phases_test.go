package continuous

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gps/internal/trace"
)

// TestEpochPhasesOneClock: a traced standalone runner records each phase
// from one clock reading. Every phase span's duration is exactly its
// EpochStats.Phases field, and each phase starts at the instant the one
// before it ended.
func TestEpochPhasesOneClock(t *testing.T) {
	trace.Default.Reset()
	trace.Default.SetEnabled(true)
	u, seedSet := testWorld(t, 3)
	r := New(seedSet, testConfig())
	stats, err := r.Epoch(churned(u, 100, 1))
	if err != nil {
		t.Fatal(err)
	}

	var root trace.SpanRecord
	for _, rec := range trace.Default.Snapshot() {
		if rec.Parent == 0 && rec.Name == "epoch" {
			root = rec
		}
	}
	if root.SpanID == 0 {
		t.Fatal("a standalone epoch recorded no epoch root span")
	}
	var phases []trace.SpanRecord
	for _, rec := range trace.Default.TraceSpans(root.TraceID) {
		if rec.Parent == root.SpanID {
			phases = append(phases, rec)
		}
	}
	want := []struct {
		name string
		d    time.Duration
	}{
		{"reverify", stats.Phases.Reverify}, {"retrain", stats.Phases.Retrain},
		{"discover", stats.Phases.Discover}, {"fold", stats.Phases.Fold},
	}
	if len(phases) != len(want) {
		t.Fatalf("epoch root has %d children; want the %d phases", len(phases), len(want))
	}
	for i, w := range want {
		got := phases[i]
		if got.Name != w.name || got.Duration != w.d {
			t.Errorf("phase %d is %s lasting %v; want %s lasting exactly Phases' %v", i, got.Name, got.Duration, w.name, w.d)
		}
		if i > 0 {
			prev := phases[i-1]
			if end := prev.Start.Add(prev.Duration); !end.Equal(got.Start) {
				t.Errorf("%s ends at %v but %s starts at %v; want them to abut", prev.Name, end, got.Name, got.Start)
			}
		}
	}
}

// TestModelBuiltInRetrain: Epoch trains the model between the reverify
// and retrain boundaries and scans between the retrain and discover
// ones, so the package needs no model-time correction of its own.
func TestModelBuiltInRetrain(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "continuous.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// pos holds the first position of each call of interest in Epoch:
	// "pipeline.Train", "pipeline.Scan" and `endPhase("name")`.
	pos := make(map[string]token.Pos)
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Epoch" || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var key string
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && x.Name == "pipeline" {
					key = "pipeline." + fun.Sel.Name
				}
			case *ast.Ident:
				if fun.Name == "endPhase" {
					key, _ = strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
				}
			}
			if _, seen := pos[key]; key != "" && !seen {
				pos[key] = call.Pos()
			}
			return true
		})
	}
	order := []string{"reverify", "pipeline.Train", "retrain", "pipeline.Scan", "discover", "fold"}
	for i, k := range order {
		if pos[k] == token.NoPos {
			t.Fatalf("Runner.Epoch has no %s call", k)
		}
		if i > 0 && pos[order[i-1]] >= pos[k] {
			t.Errorf("%s at %v does not follow %s at %v", k, fset.Position(pos[k]), order[i-1], fset.Position(pos[order[i-1]]))
		}
	}

	files, _ := filepath.Glob("*.go")
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, stale := range []string{"Timings.Model", "model_us"} {
			if strings.Contains(string(src), stale) {
				t.Errorf("%s mentions %s: the retrain phase already holds the model build", name, stale)
			}
		}
	}
}
