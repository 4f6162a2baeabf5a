package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graph2par"
)

// TestRewriteOverHTTP drives the full wire path: with the stage enabled,
// POST /rewrite returns the transformed source plus per-loop plans, and
// /stats grows a populated rewrite section.
func TestRewriteOverHTTP(t *testing.T) {
	e := engineWith(t, graph2par.EngineConfig{Rewrite: true, CacheSize: 512})
	ts := httptest.NewServer(New(e).Handler())
	t.Cleanup(ts.Close)

	var resp rewriteResponse
	if code := postJSON(t, ts.URL+"/v1/rewrite", requestEnvelope{Source: program}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Output == "" {
		t.Fatal("empty output")
	}
	plans := 0
	for _, r := range resp.Reports {
		if r.Parallel != (r.Rewrite != nil) {
			t.Errorf("line %d: Parallel=%v but Rewrite=%v", r.Line, r.Parallel, r.Rewrite)
		}
		if r.Rewrite != nil {
			plans++
		}
	}
	if resp.Changed != strings.Contains(resp.Output, "#pragma omp") {
		t.Errorf("changed=%v but output:\n%s", resp.Changed, resp.Output)
	}
	if !resp.Changed && resp.Output != program {
		t.Error("unchanged response altered the source anyway")
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if !stats.Rewrite.Enabled {
		t.Error("stats rewrite section disabled with the stage on")
	}
	if stats.Requests.Rewrite == 0 {
		t.Error("rewrite request counter never moved")
	}
	if plans > 0 && stats.Rewrite.Rewritten+stats.Rewrite.Atomic+stats.Rewrite.Suggestion == 0 {
		t.Error("plan counters never moved")
	}
}

func TestRewriteDisabledReturns503(t *testing.T) {
	ts := server(t)
	var errResp errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/rewrite", requestEnvelope{Source: program}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
	if errResp.Error.Code != codeRewriteDisabled || !strings.Contains(errResp.Error.Message, "-rewrite") {
		t.Errorf("error %+v does not carry %q pointing at the -rewrite flag", errResp.Error, codeRewriteDisabled)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Rewrite.Enabled {
		t.Error("stats rewrite section enabled with the stage off")
	}
}

func TestRewriteRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(engineWith(t, graph2par.EngineConfig{Rewrite: true})).Handler())
	t.Cleanup(ts.Close)

	var errResp errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/rewrite", requestEnvelope{}, &errResp); code != http.StatusBadRequest {
		t.Errorf("missing source: status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/rewrite", requestEnvelope{Source: "int f( {"}, &errResp); code != http.StatusUnprocessableEntity {
		t.Errorf("unparseable source: status = %d, want 422", code)
	}
	resp, err := http.Get(ts.URL + "/v1/rewrite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d, want 405", resp.StatusCode)
	}
}
