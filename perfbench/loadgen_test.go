package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must raise the latency of the requests
// scheduled behind it: open-loop latency runs from each request's due
// time, not from when the client got around to sending it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	var sched []arrival
	for i := 0; i < 8; i++ {
		sched = append(sched, arrival{Due: time.Duration(i) * 20 * time.Millisecond, Src: i})
	}
	res, elapsed := openLoop(sched, func(int) (int, []byte, error) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	})
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, r.status, r.err)
		}
	}
	if res[0].lat < float64(stall.Milliseconds()) {
		t.Errorf("stalled request took %.1f ms, want ≥ %d", res[0].lat, stall.Milliseconds())
	}
	// Request i was due 20·i ms after the stalled one but could not be
	// served before the stall ended, so it waited at least the rest of it.
	for i := 1; i < len(res); i++ {
		wait := float64(stall.Milliseconds() - int64(20*i))
		if res[i].lat < wait {
			t.Errorf("request %d behind the stall: latency %.1f ms, want ≥ %.0f", i, res[i].lat, wait)
		}
	}
	if elapsed < stall {
		t.Errorf("phase took %v, shorter than the stall", elapsed)
	}
	for i, r := range res {
		if r.lag > 50 {
			t.Errorf("request %d dispatched %.1f ms late", i, r.lag)
		}
	}
}
