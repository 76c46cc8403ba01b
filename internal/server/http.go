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
	mux.HandleFunc("/compress", s.handle(OpCompress))
	mux.HandleFunc("/decompress", s.handle(OpDecompress))
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

// timedWriter accumulates each Write's wall time into the trace's
// response_write stage and counts the bytes written. serve wraps the
// front's writer in one on the streamed compress path, where response
// bytes go out from inside the engine call.
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

// handle returns the handler of one POST route, op naming its
// operation. Its steps, in order: the method and drain checks; admit,
// which answers an unknown dictionary 400 and a full gate 429 before
// the body is read; the capped body read; the headers; serve; and the
// response write, unless serve streamed the response itself.
func (s *Server) handle(op byte) http.HandlerFunc {
	name, contentType, failStatus := "compress", "application/zlib", http.StatusInternalServerError
	if op == OpDecompress {
		// Input that does not inflate is the client's error.
		name, contentType, failStatus = "decompress", "application/octet-stream", http.StatusBadRequest
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if s.draining.Load() {
			http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
			return
		}
		rt := obs.NewRequestTrace("http", name)
		rt.Level = s.cfg.LevelName
		dictID := r.Header.Get(DictHeader)
		dictBytes, err := s.admit(rt, dictID)
		if errors.Is(err, ErrBusy) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer s.release()
		// Stage the whole request first, the way the paper's testbench
		// stages a block in DDR2 before streaming it through the
		// compressor. The cap turns a hostile Content-Length or an endless
		// chunked body into a 413 instead of unbounded memory.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxRequestBytes)))
		if err != nil {
			countError()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("%v: request over the %d-byte cap", ErrTooLarge, s.cfg.MaxRequestBytes),
					http.StatusRequestEntityTooLarge)
			} else {
				// Truncated chunked encoding, client reset mid-body, …
				http.Error(w, fmt.Sprintf("reading request body: %v", err), http.StatusBadRequest)
			}
			return
		}
		h := w.Header()
		h.Set(TraceIDHeader, rt.ID)
		// A streamed compress sends the status line from inside serve,
		// so a compress sets its body headers first; a decompress sets
		// them once it has succeeded, so its 400 carries none.
		if op == OpCompress {
			bodyHeaders(h, contentType, dictID)
		}
		ctx := r.Context()
		out, sent, start, err := s.serve(ctx, rt, &Message{Op: op, Payload: body, DictID: dictID}, dictBytes, w)
		switch {
		case err != nil:
			// serve counted and traced the failure. Once a stream has
			// sent bytes the status line is out, so the only honest
			// signal left is the cut-short body; a vanished client gets
			// nothing.
			if sent == 0 && ctx.Err() == nil {
				http.Error(w, err.Error(), failStatus)
			}
		case sent == 0:
			if op == OpDecompress {
				bodyHeaders(h, contentType, dictID)
			}
			wStart := time.Now()
			n, werr := w.Write(out)
			rt.AddWrite(time.Since(wStart))
			sent, err = int64(n), werr
			rt.SetErr(werr)
		}
		if err == nil {
			if k := srvObs.Load(); k != nil {
				k.responseBytes.Observe(sent)
			}
		}
		s.finishRequest(rt, time.Since(start), sent)
	}
}

// bodyHeaders sets the headers of a successful response body.
func bodyHeaders(h http.Header, contentType, dictID string) {
	h.Set("Content-Type", contentType)
	// The body is an exact artifact: an intermediary re-encoding it
	// would break the Adler/DICTID framing byte-for-byte clients (and
	// the content-addressed cache) depend on.
	h.Set("Cache-Control", "no-transform")
	if dictID != "" {
		h.Set(DictHeader, dictID)
	}
}
