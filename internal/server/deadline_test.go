package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTricklingSpecTimesOut: a client that sends its spec body a byte at
// a time, far slower than specReadTimeout allows, gets an error back
// within the bound instead of holding the handler open; the server keeps
// serving afterwards.
func TestTricklingSpecTimesOut(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, t.TempDir())
	_, canon := testSpec(t)

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/runs HTTP/1.1\r\nHost: asapd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(canon))

	// One byte every 200ms: the whole spec would take minutes.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for _, c := range canon {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{c}); err != nil {
				return
			}
		}
	}()

	bound := specReadTimeout + 3*time.Second
	conn.SetReadDeadline(start.Add(bound))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("no response after %v (bound %v): %v", elapsed, bound, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trickled spec: status %d after %v, want 400", resp.StatusCode, elapsed)
	}
	if elapsed < specReadTimeout {
		t.Fatalf("trickled spec rejected after %v, before the %v read deadline", elapsed, specReadTimeout)
	}

	if resp, body := post(t, ts.URL+"/v1/runs", canon); resp.StatusCode != http.StatusOK {
		t.Fatalf("prompt submit after the trickler: status %d: %s", resp.StatusCode, body)
	}
}

// deadlineRecorder is a response writer that records the read deadlines
// http.ResponseController sets on it.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadlines []time.Time
}

func (d *deadlineRecorder) SetReadDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return nil
}

// TestReadSpecLiftsDeadline: the body read runs under specReadTimeout, and
// the deadline is lifted once the spec is in, so a sync submit waiting on
// a long simulation is not cancelled by the connection's read deadline.
func TestReadSpecLiftsDeadline(t *testing.T) {
	w := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	r := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(`{"workload":"cceh"}`))
	before := time.Now()
	body, err := readSpec(w, r)
	if err != nil || string(body) != `{"workload":"cceh"}` {
		t.Fatalf("readSpec = %q, %v", body, err)
	}
	if len(w.deadlines) != 2 {
		t.Fatalf("set %d read deadlines, want 2 (bound, then lift): %v", len(w.deadlines), w.deadlines)
	}
	if d := w.deadlines[0].Sub(before); d < specReadTimeout || d > specReadTimeout+time.Second {
		t.Errorf("body read deadline %v after the request, want %v", d, specReadTimeout)
	}
	if !w.deadlines[1].IsZero() {
		t.Errorf("deadline after the read = %v, want it lifted (zero)", w.deadlines[1])
	}
}
