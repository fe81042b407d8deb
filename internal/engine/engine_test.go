package engine

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		n := 1000
		var covered [1000]atomic.Bool
		ParallelFor(Config{Workers: workers}, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if covered[i].Swap(true) {
					t.Errorf("index %d visited twice", i)
				}
			}
		})
		for i := range covered {
			if !covered[i].Load() {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(Config{}, 0, func(lo, hi int) { called = true })
	if called {
		t.Error("body called for n=0")
	}
}

func TestConfigResolve(t *testing.T) {
	if (Config{Workers: 3}).Resolve() != 3 {
		t.Error("explicit workers not honored")
	}
	if (Config{}).Resolve() < 1 {
		t.Error("default workers must be >= 1")
	}
}

// TestChunksOrder: results come back by chunk, lowest range first, and the
// chunks tile [0, n) exactly, whatever the worker count.
func TestChunksOrder(t *testing.T) {
	type span struct{ lo, hi int }
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{1, 2, 7, 1000} {
			got := Chunks(Config{Workers: workers}, n, func(lo, hi int) span { return span{lo, hi} })
			next := 0
			for _, s := range got {
				if s.lo != next || s.hi <= s.lo {
					t.Fatalf("workers=%d n=%d: chunks %v do not tile the range in order", workers, n, got)
				}
				next = s.hi
			}
			if next != n || len(got) > workers {
				t.Fatalf("workers=%d n=%d: %d chunks ending at %d", workers, n, len(got), next)
			}
		}
	}
}

func TestChunksEmpty(t *testing.T) {
	if got := Chunks(Config{}, 0, func(lo, hi int) int { return 1 }); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
}
