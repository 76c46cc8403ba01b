// Command bench is the repository's benchmark. It drives the compressor
// library in process (bulk) and the lzssd daemon over loopback
// (serve-tcp, serve-hot, cluster-small), checks every output against
// the standard library's compress/zlib, prints every metric by name and
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also times each layer's public functions on the inputs the
// workload sent, prints the per-layer ledger reconciled to the
// end-to-end cost, writes its spans as Chrome trace events to
// trace-<workload>.json in the -out directory, and reports the per-layer
// metrics instead. Timings are scaled by a reference job (refJob) so that
// the shared host's changing speed stays out of them. Run it from the
// repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload serve-tcp --seed 1 --seconds 24 --trace 0
//
// It builds ./cmd/lzssd from the same checkout. Inputs are generated
// from -seed by internal/workload, so one seed always yields the same
// inputs. A wrong output makes it exit non-zero, as does a load
// generator that ran later than maxLateP95.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxLateP95 bounds how late (95th percentile) the open-loop generator
// may send a request it was waiting to send. Past it the offered load
// was not the stated rate and the run is refused.
const maxLateP95 = 20 * time.Millisecond

// setups is how many times a run sets the system up; setup_s (and for
// bulk peak_rss_mb) is the median.
const setups = 11

// The end-to-end metrics every workload reports, with their units.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"compress_mb_s":   "MB/s",
	"decompress_mb_s": "MB/s",
	"ratio":           "x",
	"lat_p50_ms":      "ms",
	"lat_p90_ms":      "ms",
	"peak_rss_mb":     "MiB",
}

// config is one run's settings.
type config struct {
	root  string        // repository root
	seed  int64         // input seed
	run   time.Duration // measured time of the run
	trace *tracer       // nil unless -trace 1
	lzssd string        // daemon binary built from root
	ref   *refJob       // the yardstick timings are scaled by
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	mismatches        int64 // outputs that differed from the stdlib check
	verified          int64 // outputs the stdlib check accepted
	lateP95           float64
	e2e               map[string]float64
	raw               map[string]float64 // the timing metrics as measured, before scaling by refJob
	how               map[string]string  // what each end-to-end metric measured, with its sample count
	layers            map[string]metric  // traced runs only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []struct {
	name string
	run  func(*config) (*outcome, error)
}{
	{"bulk", runBulk},
	{"serve-tcp", func(c *config) (*outcome, error) { return runServing(c, serveTCP) }},
	{"serve-hot", func(c *config) (*outcome, error) { return runServing(c, serveHot) }},
	{"cluster-small", func(c *config) (*outcome, error) { return runServing(c, clusterSmall) }},
}

func main() {
	if seed := os.Getenv(coldProbeEnv); seed != "" {
		os.Exit(coldProbe(seed))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: bulk, serve-tcp, serve-hot, cluster-small or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 24, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced ledger and reports per-layer metrics")
	out := fs.String("out", "", "directory for the traced runs' span files, trace-<workload>.json (default .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var todo []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	lzssd, err := buildDaemon(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printHost()
	code := 0
	for _, i := range todo {
		w := workloads[i]
		c := &config{root: root, seed: *seed, run: time.Duration(*seconds * float64(time.Second)), lzssd: lzssd, ref: newRefJob()}
		if *trace == 1 {
			c.trace = newTracer()
		}
		fmt.Printf("== %s  seed=%d  seconds=%g  trace=%d\n", w.name, *seed, *seconds, *trace)
		o, err := w.run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if c.trace != nil {
			dir := *out
			if dir == "" {
				dir = filepath.Join(root, ".bench_build")
			}
			path := filepath.Join(dir, "trace-"+w.name+".json")
			if err := c.trace.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Printf("spans: %d written to %s\n", c.trace.len(), path)
		}
		if rc := finish(c, w.name, o); rc != 0 {
			code = rc
		}
	}
	return code
}

// finish prints a run's verdict and its JSON line and returns the exit
// code: non-zero when an output was wrong, nothing was verified, or the
// generator ran late.
func finish(c *config, name string, o *outcome) int {
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	res.Correct = o.mismatches == 0 && o.verified > 0
	if c.trace == nil {
		for k, u := range e2eUnits {
			res.Metrics[k] = metric{o.e2e[k], u}
		}
		saveUntraced(c, name, o.e2e)
	} else {
		res.Metrics = o.layers
		printTracingOverhead(c, name, o.e2e)
	}
	fmt.Printf("verified %d outputs against compress/zlib, %d mismatches; fail_share %.4f (%d of %d)\n",
		o.verified, o.mismatches, float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	code := 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: outputs failed verification\n", name)
		code = 1
	}
	if o.lateP95 > ms(maxLateP95) {
		fmt.Fprintf(os.Stderr, "bench: %s: generator ran %.2f ms late at p95 (bound %v)\n", name, o.lateP95, maxLateP95)
		code = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// repoRoot finds the repository the benchmark measures: the working
// directory (run.sh) or its parent (go test in bench/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "lzssd")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/lzssd here or in the parent directory: run from the repository root")
}

// buildDaemon builds lzssd from the checkout under test. The build is
// not part of any timed metric.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "lzssd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lzssd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lzssd: %v\n%s", err, out)
	}
	return bin, nil
}

// printHost records what the numbers were measured on.
func printHost() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// printMetrics prints a metric table in name order.
func printMetrics(title string, m map[string]metric) {
	fmt.Println(title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// untracedPath is where an untraced run leaves its end-to-end values for
// a later traced run of the same workload, seed and length to compare
// against.
func untracedPath(c *config, name string) string {
	return filepath.Join(c.root, ".bench_build", fmt.Sprintf("untraced-%s-seed%d-%gs.json", name, c.seed, c.run.Seconds()))
}

func saveUntraced(c *config, name string, e2e map[string]float64) {
	b, err := json.Marshal(e2e)
	if err == nil {
		err = os.WriteFile(untracedPath(c, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: keeping untraced values:", err)
	}
}

// printTracingOverhead prints the traced run's end-to-end values beside
// those of the last untraced run of the same workload, seed and length.
func printTracingOverhead(c *config, name string, traced map[string]float64) {
	var untraced map[string]float64
	b, err := os.ReadFile(untracedPath(c, name))
	if err == nil {
		err = json.Unmarshal(b, &untraced)
	}
	if err != nil {
		fmt.Println("tracing overhead: no untraced run of this workload, seed and length to compare with")
		return
	}
	fmt.Println("tracing overhead (traced vs last untraced run, same seed and length):")
	keys := make([]string, 0, len(e2eUnits))
	for k := range e2eUnits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := untraced[k]
		fmt.Printf("  %-18s traced %12.4f  untraced %12.4f  %+7.1f%%\n", k, traced[k], u, 100*(traced[k]-u)/u)
	}
}
