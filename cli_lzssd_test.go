package lzssfpga

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lzssfpga/internal/deflate"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// lzssdProc is one running daemon under test: the process handle plus
// the addresses parsed from its startup lines.
type lzssdProc struct {
	cmd         *exec.Cmd
	httpAddr    string
	tcpAddr     string
	metricsAddr string     // set only when started with -metrics
	done        chan error // resolves with cmd.Wait; consume via wait() only
	waitOnce    sync.Once
	waitErr     error
	out         *bytes.Buffer
	outMu       *sync.Mutex
}

// wait blocks until the daemon exits and returns its cmd.Wait error;
// safe to call from both the test body and the Cleanup.
func (p *lzssdProc) wait() error {
	p.waitOnce.Do(func() { p.waitErr = <-p.done })
	return p.waitErr
}

// startLzssd launches the daemon on free ports and waits for both
// "listening on" lines.
func startLzssd(t *testing.T, extraArgs ...string) *lzssdProc {
	t.Helper()
	args := append([]string{"-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(cliBin(t, "lzssd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &lzssdProc{cmd: cmd, done: make(chan error, 1), out: &bytes.Buffer{}, outMu: &sync.Mutex{}}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		var httpAddr, tcpAddr string
		for sc.Scan() {
			line := sc.Text()
			p.outMu.Lock()
			fmt.Fprintln(p.out, line)
			p.outMu.Unlock()
			if a, ok := strings.CutPrefix(line, "lzssd: metrics listening on "); ok {
				p.outMu.Lock()
				p.metricsAddr = a
				p.outMu.Unlock()
			}
			if a, ok := strings.CutPrefix(line, "lzssd: http listening on "); ok {
				httpAddr = a
			}
			if a, ok := strings.CutPrefix(line, "lzssd: tcp listening on "); ok {
				tcpAddr = a
			}
			if httpAddr != "" && tcpAddr != "" {
				select {
				case addrs <- [2]string{httpAddr, tcpAddr}:
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		p.wait()           //nolint:errcheck
	})
	select {
	case a := <-addrs:
		p.httpAddr, p.tcpAddr = a[0], a[1]
	case <-time.After(10 * time.Second):
		t.Fatalf("lzssd did not announce its listeners; output:\n%s", p.output())
	}
	return p
}

func (p *lzssdProc) output() string {
	p.outMu.Lock()
	defer p.outMu.Unlock()
	return p.out.String()
}

func (p *lzssdProc) metrics() string {
	p.outMu.Lock()
	defer p.outMu.Unlock()
	return p.metricsAddr
}

// TestCLILzssdConcurrentClients is the process-level acceptance run:
// one lzssd serves 36 concurrent clients (half HTTP, half framed TCP)
// and every response re-inflates byte-exact.
func TestCLILzssdConcurrentClients(t *testing.T) {
	// Capacity is provisioned above the client count so the run tests
	// byte-exactness, not the backpressure gate.
	p := startLzssd(t, "-segment", "8192", "-inflight", "64")
	lim := deflate.DecodeLimits{MaxOutputBytes: 1 << 30, MaxBlocks: 1 << 20}
	payloads := [][]byte{
		{},
		{0x5A},
		workload.Wiki(48<<10, 21), // several segments at -segment 8192
	}

	const clients = 36
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- lzssdClientRun(i, p, lim, payloads)
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("%v\nlzssd output:\n%s", err, p.output())
		}
	}
}

func lzssdClientRun(i int, p *lzssdProc, lim deflate.DecodeLimits, payloads [][]byte) error {
	verify := func(z, want []byte) error {
		got, err := deflate.ZlibDecompressLimited(z, lim)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("round trip mismatch (%d in, %d back)", len(want), len(got))
		}
		return nil
	}
	if i%2 == 0 {
		hc := client.NewHTTP(p.httpAddr)
		for pi, data := range payloads {
			z, err := hc.Compress(context.Background(), data)
			if err != nil {
				return fmt.Errorf("http client %d payload %d: %w", i, pi, err)
			}
			if err := verify(z, data); err != nil {
				return fmt.Errorf("http client %d payload %d: %w", i, pi, err)
			}
		}
		return nil
	}
	tc, err := client.DialMuxTimeout(p.tcpAddr, 0, 0)
	if err != nil {
		return fmt.Errorf("tcp client %d: dial: %w", i, err)
	}
	defer tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for pi, data := range payloads {
		z, err := tc.Compress(ctx, data)
		if err != nil {
			return fmt.Errorf("tcp client %d payload %d: %w", i, pi, err)
		}
		if err := verify(z, data); err != nil {
			return fmt.Errorf("tcp client %d payload %d: %w", i, pi, err)
		}
	}
	return nil
}

// TestCLILzssdGracefulDrain sends SIGTERM while requests are held in
// flight by injected worker stalls: every in-flight response must still
// arrive byte-exact, the process must exit 0 with its "drained" line,
// and new connections must be refused afterwards.
func TestCLILzssdGracefulDrain(t *testing.T) {
	// stall=1 stalls every segment attempt for 500 ms, holding each
	// request in flight long enough to straddle the signal.
	p := startLzssd(t, "-faults", "stall=1,stallms=500,seed=1", "-drain", "20s", "-metrics", "127.0.0.1:0")
	lim := deflate.DecodeLimits{MaxOutputBytes: 1 << 30, MaxBlocks: 1 << 20}
	payload := workload.Wiki(8<<10, 33)

	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			var z []byte
			var err error
			if i%2 == 0 {
				hc := client.NewHTTP(p.httpAddr)
				z, err = hc.Compress(context.Background(), payload)
			} else {
				var tc *client.Mux
				tc, err = client.DialMuxTimeout(p.tcpAddr, 0, 0)
				if err == nil {
					defer tc.Close()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					z, err = tc.Compress(ctx, payload)
				}
			}
			if err == nil {
				var got []byte
				got, err = deflate.ZlibDecompressLimited(z, lim)
				if err == nil && !bytes.Equal(got, payload) {
					err = fmt.Errorf("client %d: round trip mismatch", i)
				}
			}
			results <- err
		}(i)
	}
	// Signal the drain only once the registry reports all requests in
	// flight, so none of them can race the listener teardown.
	waitForInflight(t, p, inflight)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request across SIGTERM: %v\nlzssd output:\n%s", err, p.output())
		}
	}
	exited := make(chan error, 1)
	go func() { exited <- p.wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("lzssd exited %v, want 0\noutput:\n%s", err, p.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("lzssd did not exit after the drain\noutput:\n%s", p.output())
	}
	if out := p.output(); !strings.Contains(out, "lzssd: drained") {
		t.Fatalf("missing drained line in output:\n%s", out)
	}
	// The listeners are gone: new work must be refused.
	if _, err := client.DialMuxTimeout(p.tcpAddr, 0, 0); err == nil {
		t.Fatal("drained lzssd still accepts TCP connections")
	}
	hc := client.NewHTTP(p.httpAddr)
	if _, err := hc.Compress(context.Background(), []byte("late")); err == nil {
		t.Fatal("drained lzssd still serves HTTP")
	}
}

// startLzssdCluster launches a routing front (-cluster) over the given
// -backends list and waits for its tcp listener line.
func startLzssdCluster(t *testing.T, backends string, extraArgs ...string) *lzssdProc {
	t.Helper()
	args := append([]string{"-cluster", "-backends", backends, "-tcp", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(cliBin(t, "lzssd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &lzssdProc{cmd: cmd, done: make(chan error, 1), out: &bytes.Buffer{}, outMu: &sync.Mutex{}}
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.outMu.Lock()
			fmt.Fprintln(p.out, line)
			p.outMu.Unlock()
			if a, ok := strings.CutPrefix(line, "lzssd: metrics listening on "); ok {
				p.outMu.Lock()
				p.metricsAddr = a
				p.outMu.Unlock()
			}
			if a, ok := strings.CutPrefix(line, "lzssd: tcp listening on "); ok {
				select {
				case addrs <- a:
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		p.wait()           //nolint:errcheck
	})
	select {
	case a := <-addrs:
		p.tcpAddr = a
	case <-time.After(10 * time.Second):
		t.Fatalf("cluster front did not announce its listener; output:\n%s", p.output())
	}
	return p
}

// TestCLILzssdClusterFront runs the routing tier through the real
// binaries: two backend daemons, one lzssd -cluster front routing
// pipelined framed-TCP traffic across them, the cluster_* family on
// the front's metrics endpoint (scraped raw and as the lzssmon -watch
// header), and a SIGTERM drain that exits 0 with the drained line.
func TestCLILzssdClusterFront(t *testing.T) {
	b1 := startLzssd(t, "-segment", "8192")
	b2 := startLzssd(t, "-segment", "8192")
	backends := fmt.Sprintf("%s/%s,%s/%s", b1.tcpAddr, b1.httpAddr, b2.tcpAddr, b2.httpAddr)
	front := startLzssdCluster(t, backends, "-metrics", "127.0.0.1:0")
	if !strings.Contains(front.output(), "cluster front routing across 2 backends") {
		t.Fatalf("missing cluster banner; output:\n%s", front.output())
	}

	// Pipelined round trips through one multiplexed connection to the
	// front, every payload byte-exact after a local re-inflate.
	m, err := client.DialMuxTimeout(front.tcpAddr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lim := deflate.DecodeLimits{MaxOutputBytes: 1 << 30, MaxBlocks: 1 << 20}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := workload.Wiki(24<<10, int64(100+i))
			z, err := m.Compress(ctx, data)
			if err != nil {
				errc <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			got, err := deflate.ZlibDecompressLimited(z, lim)
			if err != nil || !bytes.Equal(got, data) {
				errc <- fmt.Errorf("client %d: round trip mismatch: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("%v\nfront output:\n%s", err, front.output())
		}
	}

	// The cluster_* family is on the front's metrics endpoint.
	out, err := exec.Command(cliBin(t, "lzssmon"), "-addr", front.metrics(), "-grep", "cluster_").Output()
	if err != nil {
		t.Fatalf("lzssmon -grep cluster_: %v\noutput:\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"cluster_requests_total", "cluster_backends 2", "cluster_backends_live 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("cluster scrape missing %q:\n%s", want, text)
		}
	}

	// lzssmon -watch renders the cluster header line.
	out, err = exec.Command(cliBin(t, "lzssmon"), "-addr", front.metrics(), "-watch", "100ms", "-count", "1").Output()
	if err != nil {
		t.Fatalf("lzssmon -watch: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(string(out), "cluster live=2/2") {
		t.Fatalf("watch frame missing cluster header:\n%s", out)
	}

	// SIGTERM drains the front: exit 0, drained line, listener gone.
	if err := front.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- front.wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("cluster front exited %v, want 0\noutput:\n%s", err, front.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cluster front did not exit after SIGTERM\noutput:\n%s", front.output())
	}
	if out := front.output(); !strings.Contains(out, "lzssd: drained") {
		t.Fatalf("missing drained line:\n%s", out)
	}
	if _, err := client.DialMuxTimeout(front.tcpAddr, 0, 0); err == nil {
		t.Fatal("drained cluster front still accepts connections")
	}
}

// waitForInflight polls the daemon's Prometheus endpoint until the
// server_inflight_requests gauge reaches n.
func waitForInflight(t *testing.T, p *lzssdProc, n int) {
	t.Helper()
	want := fmt.Sprintf("server_inflight_requests %d", n)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + p.metrics() + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close() //nolint:errcheck
			if rerr == nil && strings.Contains(string(body), want) {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("gauge never reached %q; output:\n%s", want, p.output())
}

// TestCLILzssdMetricsScrape wires the two daemons' tools together:
// lzssd serves its registry on -metrics, a request populates the
// server_* family, and lzssmon -grep server_ scrapes exactly that
// family — every emitted line names a server_ metric, and the core
// counters are present.
func TestCLILzssdMetricsScrape(t *testing.T) {
	p := startLzssd(t, "-metrics", "127.0.0.1:0")
	if p.metrics() == "" {
		t.Fatalf("no metrics address announced; output:\n%s", p.output())
	}
	hc := client.NewHTTP(p.httpAddr)
	if _, err := hc.Compress(context.Background(), workload.Wiki(4<<10, 55)); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cliBin(t, "lzssmon"), "-addr", p.metrics(), "-grep", "server_").Output()
	if err != nil {
		t.Fatalf("lzssmon -grep: %v\noutput:\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"server_requests_total", "server_request_bytes", "server_inflight_requests"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %s:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.Contains(line, "server_") {
			t.Fatalf("-grep server_ leaked a foreign line %q:\n%s", line, text)
		}
	}
}

// TestCLILzssdTraceInspectorWatch drives the PR 7 observability surface
// through the real binaries: a request's trace ID (returned in the
// X-Lzss-Trace-Id header) must be resolvable in /debug/requests, the
// slow-request log must carry it, lzssmon must scrape filtered JSON
// (-grep with -format json), and lzssmon -watch must render dashboard
// frames with the SLO header and per-second rates.
func TestCLILzssdTraceInspectorWatch(t *testing.T) {
	p := startLzssd(t, "-metrics", "127.0.0.1:0", "-slowlog", "1ns")
	if p.metrics() == "" {
		t.Fatalf("no metrics address announced; output:\n%s", p.output())
	}

	payload := workload.Wiki(16<<10, 9)
	resp, err := http.Post("http://"+p.httpAddr+"/compress", "application/octet-stream",
		bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %s", resp.Status)
	}
	traceID := resp.Header.Get("X-Lzss-Trace-Id")
	if traceID == "" {
		t.Fatal("response carries no X-Lzss-Trace-Id header")
	}

	// The trace ID keys into the live inspector.
	insp, err := http.Get("http://" + p.metrics() + "/debug/requests?fmt=json")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(insp.Body)
	insp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), traceID) {
		t.Fatalf("trace %s not in /debug/requests:\n%s", traceID, page)
	}

	// ...and into the slow-request log (threshold 1ns: everything logs).
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(p.output(), "trace="+traceID) {
		if time.Now().After(deadline) {
			t.Fatalf("slowlog line for %s never appeared; output:\n%s", traceID, p.output())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// -grep composes with -format json: filtered, valid JSON.
	out, err := exec.Command(cliBin(t, "lzssmon"),
		"-addr", p.metrics(), "-format", "json", "-grep", "server_").Output()
	if err != nil {
		t.Fatalf("lzssmon -format json -grep: %v\noutput:\n%s", err, out)
	}
	var filtered map[string]any
	if err := json.Unmarshal(out, &filtered); err != nil {
		t.Fatalf("filtered /debug/vars is not valid JSON: %v\n%s", err, out)
	}
	if _, ok := filtered["server_requests_total"]; !ok {
		t.Fatalf("filtered JSON missing server_requests_total:\n%s", out)
	}
	for key := range filtered {
		if !strings.Contains(key, "server_") {
			t.Fatalf("-grep server_ leaked key %q:\n%s", key, out)
		}
	}

	// Watch mode: two frames with the SLO header; the second has rates.
	out, err = exec.Command(cliBin(t, "lzssmon"),
		"-addr", p.metrics(), "-watch", "150ms", "-count", "2").Output()
	if err != nil {
		t.Fatalf("lzssmon -watch: %v\noutput:\n%s", err, out)
	}
	dash := string(out)
	for _, want := range []string{"latency p50=", "server_requests_total", "/s", "(Δ"} {
		if !strings.Contains(dash, want) {
			t.Fatalf("watch frames missing %q:\n%s", want, dash)
		}
	}
}
