package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// The bulk workload re-runs this binary for its cold set-ups.
	if seed := os.Getenv(coldProbeEnv); seed != "" {
		os.Exit(coldProbe(seed))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload for 1.5 s, the serving ones
// traced and bulk untraced (traced, it takes 15 s on a two-core host, as
// long as two serving workloads), and checks the output format: every metric
// BENCHMARK.json names is printed with its unit (the end-to-end ones in
// the report, the result line's set by -trace), every output was
// verified, and nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts lzssd daemons and runs every workload")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		trace := "1"
		if w.Name == "bulk" {
			trace = "0"
		}
		t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
			out, code := runCaptured(t, "-workload", w.Name, "-seed", "3", "-seconds", "1.5", "-trace", trace, "-out", t.TempDir())
			if code != 0 {
				t.Fatalf("exit code %d\n%s", code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, out)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("result %+v, want correct with attempts and no failures", res)
			}
			if !regexp.MustCompile(`verified [1-9]\d* outputs against compress/zlib, 0 mismatches`).MatchString(out) {
				t.Fatalf("no verification line\n%s", out)
			}
			for _, m := range spec.EndToEnd {
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+[-+0-9.e]+ ` + regexp.QuoteMeta(m.Unit) + `\b`)
				if !line.MatchString(out) {
					t.Errorf("%s not printed with unit %s", m.Name, m.Unit)
				}
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// runCaptured runs the benchmark in process and returns what it printed.
func runCaptured(t *testing.T, args ...string) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a short read shows up as a failed check
		read <- string(b)
	}()
	code := benchMain(args)
	os.Stdout = stdout
	w.Close()
	return <-read, code
}
