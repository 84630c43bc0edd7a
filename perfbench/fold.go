package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// repoPrefix is the import-path prefix of the simulator's own packages.
const repoPrefix = "sgxbounds/internal/"

// internalLayers maps every package under sgxbounds/internal to the layer
// its host time is charged to. A package missing here is an error, never
// "other": a new package must be placed in a layer before the benchmark
// will fold a profile that contains it.
var internalLayers = map[string]string{
	"bench":           "bench",
	"workloads":       "workloads",
	"apps/httpd":      "workloads",
	"apps/kvcache":    "workloads",
	"apps/minidb":     "workloads",
	"apps/wserv":      "workloads",
	"stress":          "workloads",
	"ripe":            "workloads",
	"harden":          "harden",
	"core":            "core",
	"origin":          "core",
	"asan":            "asan",
	"mpx":             "mpx",
	"baggy":           "baggy",
	"sfi":             "sfi",
	"alloc":           "alloc",
	"libc":            "libc",
	"machine":         "machine",
	"perf":            "machine",
	"cache":           "cache",
	"mem":             "mem",
	"enclave":         "enclave",
	"telemetry":       "telemetry",
	"serve":           "serve",
	"serve/frontdoor": "frontdoor",
	"serve/sched":     "sched",
	"serve/resultier": "resultier",
	"serve/store":     "store",
	"cluster":         "cluster",
	"faultline":       "faultline",
	"protocheck":      "protocheck",
	"protohook":       "protocheck",
}

// simLayers are the layers a simulator profile is reported in, in output
// order: those the sim workloads and the cells of the serve workloads run.
// Host time in any other layer is a fold error.
var simLayers = []string{
	"bench", "workloads", "harden", "core", "asan", "mpx", "baggy", "sfi",
	"alloc", "libc", "machine", "cache", "mem", "enclave", "telemetry",
	"runtime", "stdlib",
}

// layerOf returns the layer of one package path.
func layerOf(pkg string) (string, error) {
	if rest, ok := strings.CutPrefix(pkg, repoPrefix); ok {
		if l, ok := internalLayers[rest]; ok {
			return l, nil
		}
		return "", fmt.Errorf("package %s has no layer in the fold map", pkg)
	}
	switch {
	case pkg == "main":
		return "bench", nil // the benchmark's cell hook is harness time
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", nil
	case strings.HasPrefix(pkg, "sgxbounds/"):
		return "", fmt.Errorf("package %s has no layer in the fold map", pkg)
	}
	return "stdlib", nil
}

// funcPackage returns the package path of a symbolized function name such
// as "sgxbounds/internal/cache.(*Cache).AccessLine" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldTop folds the text of `go tool pprof -top -unit=ms` into self host
// seconds per layer.
func foldTop(top string) (map[string]float64, error) {
	layers := make(map[string]float64)
	header := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("fold: bad flat value in %q", sc.Text())
		}
		fn := strings.Join(fields[5:], " ")
		layer, err := layerOf(funcPackage(fn))
		if err != nil {
			return nil, err
		}
		layers[layer] += ms / 1000
	}
	if !header {
		return nil, fmt.Errorf("fold: no pprof -top table in output")
	}
	return layers, nil
}

// foldProfile folds a CPU profile by package with the Go toolchain's pprof.
func foldProfile(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	layers, err := foldTop(string(out))
	if err != nil {
		return nil, err
	}
	for l := range layers {
		if !slices.Contains(simLayers, l) {
			return nil, fmt.Errorf("fold: profile has host time in layer %q, which is not reported", l)
		}
	}
	return layers, nil
}
