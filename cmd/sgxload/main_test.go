package main

import (
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"
)

var errRefused = errors.New("connection refused")

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestBuildReportTotals(t *testing.T) {
	cases := []struct {
		name     string
		outcomes []outcome
		// want: accepted, coalesced, computed, 429, 5xx, errors, retried
		want     [7]int
		ratio    float64
		rate429  float64
		p50, max float64
	}{
		{
			name: "coalescing ratio is accepted over accepted minus coalesced",
			outcomes: []outcome{
				{latency: ms(10), status: http.StatusCreated},
				{latency: ms(20), status: http.StatusCreated, coalesced: true},
				{latency: ms(30), status: http.StatusCreated, coalesced: true},
				{latency: ms(40), status: http.StatusCreated, coalesced: true},
			},
			want:  [7]int{4, 3, 1, 0, 0, 0, 0},
			ratio: 4, p50: 20, max: 40,
		},
		{
			name: "no coalescing leaves the ratio at one",
			outcomes: []outcome{
				{latency: ms(5), status: http.StatusCreated},
				{latency: ms(7), status: http.StatusCreated},
			},
			want:  [7]int{2, 0, 2, 0, 0, 0, 0},
			ratio: 1, p50: 5, max: 7,
		},
		{
			name: "429, 5xx and transport errors each land in their own bucket",
			outcomes: []outcome{
				{latency: ms(10), status: http.StatusCreated},
				{latency: ms(20), status: http.StatusTooManyRequests},
				{latency: ms(30), status: http.StatusServiceUnavailable},
				{latency: ms(40), status: http.StatusInternalServerError},
				{latency: ms(50), err: errRefused},
			},
			want:    [7]int{1, 0, 1, 1, 2, 1, 0},
			ratio:   1,
			rate429: 1.0 / 5, p50: 20, max: 40,
		},
		{
			name: "transport errors are excluded from the latency sample",
			outcomes: []outcome{
				{latency: ms(1), status: http.StatusCreated},
				{latency: ms(9000), err: errRefused},
				{latency: ms(8000), err: errRefused},
			},
			want:  [7]int{1, 0, 1, 0, 0, 2, 0},
			ratio: 1, p50: 1, max: 1,
		},
		{
			name: "retried counts only retried submissions that reached a node",
			outcomes: []outcome{
				{latency: ms(100), status: http.StatusCreated, retries: 1},
				{latency: ms(200), status: http.StatusTooManyRequests, retries: 2},
				{latency: ms(300), err: errRefused, retries: 2},
				{latency: ms(10), status: http.StatusCreated},
			},
			want:    [7]int{2, 0, 2, 1, 0, 1, 2},
			ratio:   1,
			rate429: 1.0 / 4, p50: 100, max: 200,
		},
		{
			name: "nothing computed leaves the ratio at zero",
			outcomes: []outcome{
				{latency: ms(3), status: http.StatusTooManyRequests},
			},
			want:    [7]int{0, 0, 0, 1, 0, 0, 0},
			rate429: 1, p50: 3, max: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cliConfig{addr: "http://a", rps: 10, duration: time.Second, mix: 0.5}
			rep := buildReport(cfg, []string{"http://a"}, tc.outcomes, len(tc.outcomes), time.Second)
			tot := rep.Totals
			got := [7]int{tot.Accepted, tot.Coalesced, tot.Computed, tot.Rejected, tot.Server5xx, tot.Errors, tot.Retried}
			if got != tc.want {
				t.Errorf("totals (accepted, coalesced, computed, 429, 5xx, errors, retried) = %v, want %v", got, tc.want)
			}
			if tot.Issued != len(tc.outcomes) {
				t.Errorf("issued = %d, want %d", tot.Issued, len(tc.outcomes))
			}
			if rep.CoalescingRatio != tc.ratio {
				t.Errorf("coalescing ratio = %v, want %v", rep.CoalescingRatio, tc.ratio)
			}
			if rep.Rate429 != tc.rate429 {
				t.Errorf("rate_429 = %v, want %v", rep.Rate429, tc.rate429)
			}
			if rep.LatencyMS.P50 != tc.p50 || rep.LatencyMS.Max != tc.max {
				t.Errorf("latency p50/max = %v/%v, want %v/%v", rep.LatencyMS.P50, rep.LatencyMS.Max, tc.p50, tc.max)
			}
			if rep.PerTarget != nil {
				t.Errorf("single-target run has a per-target breakdown: %+v", rep.PerTarget)
			}
		})
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{1, 0.99, 1},
		{1, 0.999, 1},
		{2, 0.5, 1},
		{2, 0.99, 2},
		{2, 0.999, 2},
		{1000, 0.5, 500},
		{1000, 0.99, 990},
		{1000, 0.999, 999},
		{1000, 1, 1000},
	}
	for _, tc := range cases {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPerTargetSplitsByRoundRobinTarget(t *testing.T) {
	targets := []string{"http://n1", "http://n2", "http://n3"}
	outcomes := []outcome{
		{target: 0, latency: ms(10), status: http.StatusCreated},
		{target: 1, latency: ms(20), status: http.StatusCreated, retries: 1},
		{target: 2, latency: ms(30), status: http.StatusTooManyRequests},
		{target: 0, latency: ms(40), status: http.StatusCreated, coalesced: true},
		{target: 1, latency: ms(50), err: errRefused, retries: 2},
		{target: 2, latency: ms(60), status: http.StatusBadGateway},
		{target: 7, latency: ms(70), status: http.StatusCreated}, // out of range: dropped
	}
	want := []targetReport{
		{Target: "http://n1", Issued: 2, Accepted: 2, P50MS: 10, P99MS: 40},
		{Target: "http://n2", Issued: 2, Accepted: 1, Errors: 1, Retried: 1, P50MS: 20, P99MS: 20},
		{Target: "http://n3", Issued: 2, Rejected: 1, Server5xx: 1, P50MS: 30, P99MS: 60},
	}
	if got := perTarget(targets, outcomes); !reflect.DeepEqual(got, want) {
		t.Errorf("perTarget:\n got %+v\nwant %+v", got, want)
	}

	cfg := cliConfig{addr: targets[0], rps: 10, duration: time.Second}
	rep := buildReport(cfg, targets, outcomes, len(outcomes), time.Second)
	if !reflect.DeepEqual(rep.PerTarget, want) {
		t.Errorf("buildReport per_target:\n got %+v\nwant %+v", rep.PerTarget, want)
	}
	if !reflect.DeepEqual(rep.Config.Targets, targets) {
		t.Errorf("config targets = %v, want %v", rep.Config.Targets, targets)
	}
}
