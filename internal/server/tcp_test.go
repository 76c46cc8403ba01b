package server

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lzssfpga/internal/obs"
	"lzssfpga/internal/workload"
)

// stubConn is a connection the serving loop only writes to: writes
// fail with werr, or succeed and are discarded when werr is nil.
type stubConn struct {
	net.Conn // nil: only the methods below are called
	werr     error
}

func (c *stubConn) Write(p []byte) (int, error) {
	if c.werr != nil {
		return 0, c.werr
	}
	return len(p), nil
}

func (c *stubConn) SetReadDeadline(time.Time) error  { return nil }
func (c *stubConn) SetWriteDeadline(time.Time) error { return nil }

// TestServerTCPFailedWriteIsAnError: when a framed-TCP response cannot
// be written, the request is traced as failed (the slow-request log
// reports it at level=error with the write's error and no bytes out)
// and server_response_bytes does not count it. Nor does it count a
// StatusBusy bounce, written or not: it holds StatusOK payloads that
// left, as on the HTTP front.
func TestServerTCPFailedWriteIsAnError(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)
	var logged bytes.Buffer
	s, err := New(Config{SlowLog: time.Nanosecond, Log: &logged})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	gone := errors.New("client went away")
	req := &Message{Op: OpCompress, Payload: workload.Wiki(1200, 1)}
	serve := func(werr error) string {
		before := logged.Len()
		s.serveTCP(Reply{f: s.tcp, tc: &tcpConn{c: &stubConn{werr: werr}}, req: req}, req)
		return logged.String()[before:]
	}
	responses := func() float64 {
		count, ok := reg.Snapshot()[obs.ServerResponseBytes+"_count"]
		if !ok {
			t.Fatalf("%s_count not in the registry snapshot", obs.ServerResponseBytes)
		}
		return count
	}

	line := serve(gone)
	for _, want := range []string{"level=error", " op=compress ", " out=0 ", ` err="`, `client went away"`} {
		if !strings.Contains(line, want) {
			t.Errorf("log line lacks %q:\n%s", want, line)
		}
	}
	if n := responses(); n != 0 {
		t.Fatalf("%s counted %v responses that never left", obs.ServerResponseBytes, n)
	}

	// Hold every engine slot, so both requests bounce StatusBusy.
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	serve(nil)
	serve(gone)
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	if n := responses(); n != 0 {
		t.Fatalf("%s counted %v busy bounces", obs.ServerResponseBytes, n)
	}

	// The control: a compress response that is written counts once.
	if line := serve(nil); strings.Contains(line, "level=error") {
		t.Fatalf("written response logged as an error:\n%s", line)
	}
	if n := responses(); n != 1 {
		t.Fatalf("%s counted %v written responses, want 1", obs.ServerResponseBytes, n)
	}
}
