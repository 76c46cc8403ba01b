package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/obs"
)

// TraceIDHeader carries the server-assigned request trace ID on every
// HTTP response that entered service (the same ID the TCP front carries
// in its header trace field, and the key into /debug/requests).
const TraceIDHeader = "X-Lzss-Trace-Id"

// DictHeader negotiates a preset dictionary: a request naming a
// registered dictionary is compressed (or decompressed) against it,
// and the response echoes the negotiated ID back in the same header.
// An unknown ID is a deterministic 400 — never a retryable error.
const DictHeader = "X-Lzss-Dict"

// HTTPHandler returns the HTTP front:
//
//	POST /compress    request body in (chunked or sized), zlib stream
//	                  out — streamed while later segments compress;
//	                  X-Lzss-Dict selects a preset dictionary
//	POST /decompress  zlib stream in, raw bytes out, via the hardened
//	                  limited decoder (X-Lzss-Dict seeds the window)
//	GET  /dicts       JSON listing of the registered dictionaries
//	GET  /healthz     200 "ok" while serving, 503 "draining" after
//
// Error mapping: oversize body → 413, malformed body, corrupt
// decompress input or unknown dictionary → 400, at capacity → 429
// (Retry-After: 1), draining → 503, wrong method → 405.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compress", s.handleCompress)
	mux.HandleFunc("/decompress", s.handleDecompress)
	mux.HandleFunc("/dicts", s.handleDicts)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleDicts serves the dictionary listing: name, size, Adler-32
// (the DICTID streams compressed against it carry) and live hit count
// for every registered dictionary. An empty registry lists as [].
func (s *Server) handleDicts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	infos := []dict.Info{}
	if s.cfg.Dicts != nil {
		infos = s.cfg.Dicts.List()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos) //nolint:errcheck
}

// handleHealthz answers liveness probes. The plain form is the
// original two-state contract, byte-identical for existing callers:
// 200 "ok" while serving, 503 "draining" once the drain has begun.
// ?fmt=json adds the cluster-membership view — the drain state plus
// the in-flight gauge against its cap — so a routing tier can tell
// "busy but alive" (route around softly) from "draining" (eject until
// the node restarts). The JSON form keeps the same status codes, so a
// prober that only looks at the code still works.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("fmt") == "json" {
		state := "serving"
		code := http.StatusOK
		if s.draining.Load() {
			state = "draining"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, "{\"state\":%q,\"inflight\":%d,\"max_inflight\":%d}\n",
			state, s.inflight.Load(), s.cfg.MaxInflight)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// gate runs the checks shared by both POST endpoints and reads the
// whole (cap-bounded) request body. On failure the response has been
// written and ok is false. On success the engine slot is held (the
// caller must release it), the trace has its slot-wait stamped and its
// input size set, and the request is registered with the inspector —
// requests bounced before acquiring a slot never entered service and
// are not traced.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, rt *obs.RequestTrace) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	if s.draining.Load() {
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return nil, false
	}
	if !s.acquire() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, ErrBusy.Error(), http.StatusTooManyRequests)
		return nil, false
	}
	rt.SlotAcquired()
	// Stage the whole request first, the way the paper's testbench
	// stages a block in DDR2 before streaming it through the
	// compressor. The cap turns a hostile Content-Length or an endless
	// chunked body into a 413 instead of unbounded memory.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxRequestBytes)))
	if err != nil {
		s.release()
		countError()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("%v: request over the %d-byte cap", ErrTooLarge, s.cfg.MaxRequestBytes),
				http.StatusRequestEntityTooLarge)
		} else {
			// Truncated chunked encoding, client reset mid-body, …
			http.Error(w, fmt.Sprintf("reading request body: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	if k := srvObs.Load(); k != nil {
		k.requestBytes.Observe(int64(len(body)))
	}
	rt.InBytes = int64(len(body))
	w.Header().Set(TraceIDHeader, rt.ID)
	beginRequest(rt)
	return body, true
}

// timedWriter accumulates each Write's wall time into the trace's
// response_write stage and counts the bytes written. It wraps the
// ResponseWriter on the streaming compress path, where response bytes
// go out from inside the engine call.
type timedWriter struct {
	w  io.Writer
	rt *obs.RequestTrace
	n  int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.n += int64(n)
	t.rt.AddWrite(time.Since(start))
	return n, err
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	rt := obs.NewRequestTrace("http", "compress")
	rt.Level = s.cfg.LevelName
	body, ok := s.gate(w, r, rt)
	if !ok {
		return
	}
	defer s.release()
	svcStart := time.Now()
	dictID := r.Header.Get(DictHeader)
	dictBytes, derr := s.resolveDict(dictID)
	if derr != nil {
		countError()
		rt.SetErr(derr)
		http.Error(w, derr.Error(), http.StatusBadRequest)
		s.finishRequest(rt, time.Since(svcStart), 0)
		return
	}
	w.Header().Set("Content-Type", "application/zlib")
	// The body is an exact zlib artifact: an intermediary re-encoding
	// it would break the Adler/DICTID framing byte-for-byte clients
	// (and the content-addressed cache) depend on.
	w.Header().Set("Cache-Control", "no-transform")
	if dictID != "" {
		w.Header().Set(DictHeader, dictID)
	}
	ctx := obs.ContextWithRequest(r.Context(), rt)
	var written int64
	var svcErr error
	if s.cache != nil {
		// Cache-fronted path: the response is a whole stored-or-computed
		// artifact, written in one piece.
		out, err := s.compressCached(ctx, body, dictID, dictBytes)
		if err != nil {
			countError()
			svcErr = err
			if ctx.Err() == nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		} else {
			wStart := time.Now()
			n, werr := w.Write(out)
			rt.AddWrite(time.Since(wStart))
			written = int64(n)
			svcErr = werr
		}
	} else {
		tw := &timedWriter{w: w, rt: rt}
		svcErr = s.compress(ctx, body, dictBytes, tw)
		written = tw.n
		if svcErr != nil {
			// Mid-stream failure: the status line is already out, so the
			// only honest signal is an aborted response body.
			countError()
		}
	}
	if svcErr == nil {
		if k := srvObs.Load(); k != nil {
			k.responseBytes.Observe(written)
		}
	}
	rt.SetErr(svcErr)
	s.finishRequest(rt, time.Since(svcStart), written)
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	rt := obs.NewRequestTrace("http", "decompress")
	rt.Level = s.cfg.LevelName
	body, ok := s.gate(w, r, rt)
	if !ok {
		return
	}
	defer s.release()
	svcStart := time.Now()
	dictID := r.Header.Get(DictHeader)
	dictBytes, derr := s.resolveDict(dictID)
	if derr != nil {
		countError()
		rt.SetErr(derr)
		http.Error(w, derr.Error(), http.StatusBadRequest)
		s.finishRequest(rt, time.Since(svcStart), 0)
		return
	}
	out, err := s.decompressDict(body, dictBytes)
	// The inflate call is this request's "compress" stage (there is no
	// engine involvement on the decompress path).
	rt.AddCompress(time.Since(svcStart))
	if err != nil {
		countError()
		rt.SetErr(err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		s.finishRequest(rt, time.Since(svcStart), 0)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-transform")
	if dictID != "" {
		w.Header().Set(DictHeader, dictID)
	}
	wStart := time.Now()
	w.Write(out) //nolint:errcheck
	rt.AddWrite(time.Since(wStart))
	if k := srvObs.Load(); k != nil {
		k.responseBytes.Observe(int64(len(out)))
	}
	s.finishRequest(rt, time.Since(svcStart), int64(len(out)))
}
