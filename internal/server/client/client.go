// Package client is the Go client of the lzssd serving layer: a thin
// HTTP client for the streaming endpoints and a multiplexing framed-TCP
// connection (Mux) that pipelines many concurrent requests on one
// socket. Both return the server package's typed errors (ErrBusy,
// ErrTooLarge, ErrCorrupt, ErrDraining) so callers can branch on the
// failure class instead of string-matching; a transport failure
// additionally poisons the Mux it happened on, and every call after that
// fails fast with ErrConnPoisoned — a framing stream that errored
// mid-message is in an unknown state, and reading on would misparse,
// not recover.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lzssfpga/internal/server"
)

// ErrConnPoisoned marks a framed-TCP connection whose transport state
// is unknown: a send or receive failed partway, so message boundaries
// are lost. Every request in flight on the connection, and every later
// call, fails with an error wrapping this sentinel. It is a retryable failure
// class: the request may be resent on a freshly dialed Mux or on
// another backend.
var ErrConnPoisoned = errors.New("client: connection poisoned")

// HTTP talks to lzssd's HTTP front.
type HTTP struct {
	base string
	c    *http.Client

	// attempts is the total try budget per request (1 = no retries);
	// maxWait caps one Retry-After sleep.
	attempts int
	maxWait  time.Duration
}

// NewHTTP builds a client for addr ("host:port" or a full URL). By
// default it does not retry; see SetRetry.
func NewHTTP(addr string) *HTTP {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &HTTP{base: strings.TrimRight(addr, "/"), c: &http.Client{}, attempts: 1, maxWait: 5 * time.Second}
}

// SetRetry makes Compress/Decompress honor the server's Retry-After
// header: a 429 (busy) or 503 (draining) response is retried after the
// advertised wait (capped at 5s, context-aware), up to attempts total
// tries. attempts <= 1 disables retrying. It returns h for chaining.
func (h *HTTP) SetRetry(attempts int) *HTTP {
	if attempts < 1 {
		attempts = 1
	}
	h.attempts = attempts
	return h
}

// Compress round-trips data through POST /compress and returns the
// zlib stream.
func (h *HTTP) Compress(ctx context.Context, data []byte) ([]byte, error) {
	return h.post(ctx, "/compress", data, "")
}

// CompressDict is Compress negotiating the named preset dictionary
// (X-Lzss-Dict): the returned stream carries the dictionary's DICTID
// and only inflates against the same dictionary bytes. An unregistered
// name fails with server.ErrUnknownDict.
func (h *HTTP) CompressDict(ctx context.Context, data []byte, dictID string) ([]byte, error) {
	return h.post(ctx, "/compress", data, dictID)
}

// CompressStream is Compress with a streaming request body (sent
// chunked): the caller owns closing the returned response stream.
// Streaming bodies cannot be replayed, so this path never retries.
func (h *HTTP) CompressStream(ctx context.Context, body io.Reader) (io.ReadCloser, error) {
	resp, _, err := h.do(ctx, "/compress", body, "")
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Decompress round-trips a zlib stream through POST /decompress and
// returns the raw bytes.
func (h *HTTP) Decompress(ctx context.Context, z []byte) ([]byte, error) {
	return h.post(ctx, "/decompress", z, "")
}

// DecompressDict is Decompress for a stream compressed against the
// named preset dictionary.
func (h *HTTP) DecompressDict(ctx context.Context, z []byte, dictID string) ([]byte, error) {
	return h.post(ctx, "/decompress", z, dictID)
}

// DictInfo is one entry of the server's GET /dicts listing.
type DictInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
	// Adler is the dictionary's Adler-32 — the DICTID streams
	// compressed against it carry.
	Adler uint32 `json:"adler32"`
	Hits  int64  `json:"hits"`
}

// Dicts fetches the server's registered preset dictionaries.
func (h *HTTP) Dicts(ctx context.Context) ([]DictInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/dicts", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("dicts: reading body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dicts: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var infos []DictInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("dicts: parsing listing: %w", err)
	}
	return infos, nil
}

// Health is the cluster-membership view of one backend, read from
// GET /healthz?fmt=json.
type Health struct {
	// State is "serving" or "draining".
	State string `json:"state"`
	// Inflight is the number of requests currently holding an engine
	// slot; MaxInflight the backpressure cap. Together they separate
	// "busy but alive" from "draining".
	Inflight    int `json:"inflight"`
	MaxInflight int `json:"max_inflight"`
}

// Health probes GET /healthz?fmt=json. It succeeds on a draining
// server too (State reports it); it errors only when the probe itself
// fails or the body is not the JSON health document.
func (h *HTTP) Health(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/healthz?fmt=json", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return Health{}, fmt.Errorf("healthz: reading body: %w", err)
	}
	var st Health
	if err := json.Unmarshal(body, &st); err != nil {
		return Health{}, fmt.Errorf("healthz: %s: parsing %q: %w", resp.Status, bytes.TrimSpace(body), err)
	}
	if st.State == "" {
		return Health{}, fmt.Errorf("healthz: %s: no state in %q", resp.Status, bytes.TrimSpace(body))
	}
	return st, nil
}

// post sends one replayable request body under the retry budget.
func (h *HTTP) post(ctx context.Context, path string, data []byte, dictID string) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		resp, retryAfter, err := h.do(ctx, path, bytes.NewReader(data), dictID)
		if err == nil {
			defer resp.Body.Close()
			out, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				return nil, fmt.Errorf("reading %s response: %w", path, rerr)
			}
			return out, nil
		}
		if attempt >= h.attempts || retryAfter < 0 {
			return nil, err
		}
		if retryAfter > h.maxWait {
			retryAfter = h.maxWait
		}
		if serr := sleepCtx(ctx, retryAfter); serr != nil {
			return nil, fmt.Errorf("%w (while honoring Retry-After: %v)", serr, err)
		}
	}
}

// do sends the request and maps non-200 statuses onto the typed
// errors. The response body of a failed request is its error text.
// retryAfter is the server-advertised wait for a retryable rejection
// (429 busy / 503 draining; zero when the header is absent or
// unparsable) and -1 for everything else.
func (h *HTTP) do(ctx context.Context, path string, body io.Reader, dictID string) (resp *http.Response, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, body)
	if err != nil {
		return nil, -1, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if dictID != "" {
		req.Header.Set(server.DictHeader, dictID)
	}
	resp, err = h.c.Do(req)
	if err != nil {
		return nil, -1, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, -1, nil
	}
	detail, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	text := strings.TrimSpace(string(detail))
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("%w: %s", server.ErrBusy, text)
	case http.StatusServiceUnavailable:
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("%w: %s", server.ErrDraining, text)
	case http.StatusRequestEntityTooLarge:
		return nil, -1, fmt.Errorf("%w: %s", server.ErrTooLarge, text)
	case http.StatusBadRequest:
		// An unknown-dictionary rejection keeps its class (the server's
		// error text leads with the sentinel); everything else a 400
		// reports is a corrupt-input rejection.
		if strings.HasPrefix(text, server.ErrUnknownDict.Error()) {
			return nil, -1, fmt.Errorf("%w: %s", server.ErrUnknownDict, strings.TrimPrefix(text, server.ErrUnknownDict.Error()+": "))
		}
		return nil, -1, fmt.Errorf("%w: %s", server.ErrCorrupt, text)
	default:
		return nil, -1, fmt.Errorf("%s: %s: %s", path, resp.Status, text)
	}
}

// parseRetryAfter reads the delay-seconds form of the header ("1",
// "0"); the HTTP-date form and garbage both come back as 0 (retry
// immediately rather than guess at clock skew).
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
