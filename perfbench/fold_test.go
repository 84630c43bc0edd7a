package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		found[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no packages found under ../internal")
	}
	for pkg := range found {
		if _, err := layerOf(repoPrefix + pkg); err != nil {
			t.Errorf("%v", err)
		}
	}
	for pkg := range internalLayers {
		if !found[pkg] {
			t.Errorf("fold map names %s, which is not a package under internal/", pkg)
		}
	}
}

func TestUnmappedPackageFailsLoudly(t *testing.T) {
	for _, pkg := range []string{"sgxbounds/internal/newlayer", "sgxbounds/cmd/sgxd"} {
		if l, err := layerOf(pkg); err == nil {
			t.Errorf("layerOf(%s) = %q, want an error", pkg, l)
		}
	}
	top := "      flat  flat%   sum%        cum   cum%\n     10ms  1.00%  1.00%       10ms  1.00%  sgxbounds/internal/newlayer.F\n"
	if _, err := foldTop(top); err == nil {
		t.Error("foldTop accepted a function of an unmapped package")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"sgxbounds/internal/cache.(*Cache).AccessLine":      "sgxbounds/internal/cache",
		"sgxbounds/internal/apps/minidb.(*DB).insert.func1": "sgxbounds/internal/apps/minidb",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":               "internal/runtime/atomic",
		"sync/atomic.(*Int64).Add":                             "sync/atomic",
		"main.simChild.func1":                                  "main",
		"sgxbounds/internal/mem.load[go.shape.uint32]":         "sgxbounds/internal/mem",
		"slices.SortFunc[go.shape.[]sgxbounds/internal/x.T,x]": "slices",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 3500ms, 100% of 3500ms total
      flat  flat%   sum%        cum   cum%
    2000ms 57.14% 57.14%     2000ms 57.14%  sgxbounds/internal/cache.(*Cache).AccessLine
     500ms 14.29% 71.43%      700ms 20.00%  sgxbounds/internal/perf.(*Counters).Add
     500ms 14.29% 85.71%      500ms 14.29%  runtime.mallocgc
     300ms  8.57% 94.29%      300ms  8.57%  sgxbounds/internal/apps/minidb.(*DB).insert
     200ms  5.71%   100%      200ms  5.71%  sort.Strings
         0     0%   100%     3500ms   100%  main.main
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 2, "machine": 0.5, "runtime": 0.5, "workloads": 0.3, "stdlib": 0.2, "bench": 0}
	for l, v := range want {
		if d := got[l] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %gs, want %gs", l, got[l], v)
		}
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("foldTop accepted output without a table")
	}
}
