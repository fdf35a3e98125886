package obs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fixtureSnapshot builds a deterministic snapshot: fixed observations,
// pinned wall-clock fields. Used by both the golden test and the
// cumulativity checks.
func fixtureSnapshot() *Snapshot {
	s := NewSet(2)
	s.Recorder(0).Observe(StageSimulate, 900*time.Nanosecond)
	s.Recorder(0).Observe(StageSimulate, 3*time.Microsecond)
	s.Recorder(1).Observe(StageSimulate, 200*time.Microsecond)
	s.Recorder(1).Observe(StageBalance, 0)
	s.Recorder(0).Observe(StageBalance, 50*time.Millisecond)
	s.Recorder(0).Add(CounterTrialsAccepted, 5)
	s.Recorder(1).Add(CounterTrialsRejected, 1)
	s.Recorder(0).Add(CounterMemoHit, 3)
	snap := s.Snapshot()
	snap.ElapsedNS = 2_500_000_000 // wall-clock fields pinned for the fixture
	snap.Timeline = Timeline{WidthNS: 1 << 24, Counts: []int64{4, 0, 2}}
	return snap
}

// TestPromGolden pins the Prometheus exposition byte-for-byte against
// testdata/metrics.golden.prom — stable family/series ordering is part
// of the format contract scrapers rely on. Regenerate with
//
//	OBS_UPDATE_GOLDEN=1 go test ./internal/obs -run TestPromGolden
func TestPromGolden(t *testing.T) {
	golden := filepath.Join("testdata", "metrics.golden.prom")
	var sb strings.Builder
	if err := WriteProm(&sb, "lb_", fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if updateGolden() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("prometheus exposition diverged from the golden fixture; if intentional, rerun with OBS_UPDATE_GOLDEN=1\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromStableOrdering: two renders of the same snapshot are
// byte-identical — map iteration order must not leak into the output.
func TestPromStableOrdering(t *testing.T) {
	snap := fixtureSnapshot()
	var a, b strings.Builder
	if err := WriteProm(&a, "lb_", snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, "lb_", snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same snapshot differ")
	}
}

// The text format 0.0.4 grammar promLint holds an exposition to.
var (
	promName   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promPair   = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"`)
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{` + promPair.String() + `(?:,` + promPair.String() + `)*\})? (NaN|[+-]Inf|[+-]?[0-9][0-9.e+-]*)$`)
)

// promLint parses an exposition strictly and returns its samples keyed
// by series (name plus label set as written). Every line must be a
// HELP/TYPE comment or a well-formed sample, no other comment is
// allowed, no family may be TYPE'd twice, and every histogram series
// must have cumulative buckets ending in a +Inf bucket equal to its
// _count.
func promLint(text string) (map[string]float64, error) {
	series := map[string]float64{}
	typed := map[string]bool{}
	histograms := map[string]bool{}
	last := map[string]float64{} // bucket series without le → last count
	inf := map[string]float64{}  // the matching _count series → +Inf count
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" {
			continue
		}
		if strings.HasPrefix(ln, "#") {
			f := strings.SplitN(ln, " ", 4)
			if len(f) != 4 || f[0] != "#" || (f[1] != "HELP" && f[1] != "TYPE") || !promName.MatchString(f[2]) {
				return nil, fmt.Errorf("stray comment %q", ln)
			}
			if f[1] == "TYPE" {
				if f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
					return nil, fmt.Errorf("unknown type in %q", ln)
				}
				if typed[f[2]] {
					return nil, fmt.Errorf("second TYPE line for %s", f[2])
				}
				typed[f[2]], histograms[f[2]] = true, f[3] == "histogram"
			}
			continue
		}
		m := promSample.FindStringSubmatch(ln)
		if m == nil {
			return nil, fmt.Errorf("unparseable sample %q", ln)
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", ln, err)
		}
		series[m[1]+m[2]] = v
		fam, ok := strings.CutSuffix(m[1], "_bucket")
		if !ok || !histograms[fam] {
			continue
		}
		var kept []string
		le := ""
		for _, pair := range promPair.FindAllStringSubmatch(m[2], -1) {
			if pair[1] == "le" {
				le = pair[2]
			} else {
				kept = append(kept, pair[0])
			}
		}
		key := fam + "{" + strings.Join(kept, ",") + "}"
		if le == "" {
			return nil, fmt.Errorf("bucket without le: %q", ln)
		}
		if prev, seen := last[key]; seen && v < prev {
			return nil, fmt.Errorf("%s not cumulative: le=%s holds %v after %v", key, le, v, prev)
		}
		last[key] = v
		if le == "+Inf" {
			inf[strings.Replace(key, "{", "_count{", 1)] = v
		}
	}
	for key := range last {
		count := strings.Replace(key, "{", "_count{", 1)
		c, ok := series[strings.TrimSuffix(count, "{}")]
		if v, capped := inf[count]; !capped || !ok || v != c {
			return nil, fmt.Errorf("%s: +Inf bucket (%v, present %v) differs from _count (%v, present %v)", key, v, capped, c, ok)
		}
	}
	return series, nil
}

// TestPromStrictExposition runs promLint over one page built from every
// PromWriter method — a zero-sample counter, a gauge with escaped HELP
// text and label values, direct histograms, a local snapshot, and a
// merged fleet snapshot — and over known-bad pages it must refuse.
func TestPromStrictExposition(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("t_events_total", "No samples yet.")
	p.Gauge("t_gauge", "Escapes: \\ and\na newline.",
		Sample{Labels: []Label{{Name: "path", Value: `C:\dir"q` + "\n"}}, Value: 1},
		Sample{Labels: []Label{{Name: "path", Value: "b"}}, Value: math.Inf(1)})
	p.Histograms("t_seconds", "Direct histograms.", []string{"a", "b", "absent"}, map[string]StageStats{
		"a": {Count: 3, TotalNS: 7, Buckets: []int64{1, 0, 2}},
		"b": {Count: 0},
	})
	p.Snapshot("lb_", fixtureSnapshot())
	p.Snapshot("lbfleet_", MergeSnapshots(fixtureSnapshot(), fixtureSnapshot()))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	series, err := promLint(sb.String())
	if err != nil {
		t.Fatalf("%v in:\n%s", err, sb.String())
	}
	for s, want := range map[string]float64{
		"t_events_total":                         0,
		`t_seconds_bucket{stage="a",le="4e-09"}`: 3,
		`lbfleet_stage_duration_seconds_bucket{stage="simulate",le="+Inf"}`: 6,
		"lbfleet_trials_accepted_total":                                     10,
	} {
		if got, ok := series[s]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", s, got, ok, want)
		}
	}

	for _, bad := range []string{
		"# a stray comment\n",
		"# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"x{l=\"unterminated} 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",
	} {
		if _, err := promLint(bad); err == nil {
			t.Errorf("promLint accepted %q", bad)
		}
	}
}

// TestPromEscaping: label values with backslashes, quotes, and newlines
// render escaped; HELP text escapes backslash and newline.
func TestPromEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Gauge("esc_metric", "line1\nline2 with \\ slash",
		Sample{Labels: []Label{{Name: "path", Value: `C:\dir"q` + "\n"}}, Value: 1})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantHelp := `# HELP esc_metric line1\nline2 with \\ slash` + "\n"
	if !strings.Contains(out, wantHelp) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	wantSeries := `esc_metric{path="C:\\dir\"q\n"} 1` + "\n"
	if !strings.Contains(out, wantSeries) {
		t.Errorf("label value not escaped, want %q in:\n%s", wantSeries, out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("raw newline leaked into exposition:\n%q", out)
	}
}

// TestPromNilSnapshot: a nil snapshot renders an empty, valid body.
func TestPromNilSnapshot(t *testing.T) {
	var sb strings.Builder
	if err := WriteProm(&sb, "lb_", nil); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil snapshot rendered output:\n%s", sb.String())
	}
}

// TestPromBucketLE pins the le bound mapping: bucket 0 → "0", bucket i
// → 2^i ns in seconds, including the i=63 bound that would overflow
// int64 arithmetic.
func TestPromBucketLE(t *testing.T) {
	cases := map[int]string{
		0:  "0",
		1:  "2e-09",
		10: "1.024e-06",
		30: "1.073741824",
		63: "9.223372036854776e+09",
	}
	for i, want := range cases {
		if got := bucketLE(i); got != want {
			t.Errorf("bucketLE(%d) = %q, want %q", i, got, want)
		}
	}
}
