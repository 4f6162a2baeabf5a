package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"graph2par"
)

// TestVerifyOverHTTP serves an engine with the verification stage on and
// checks the two wire-visible effects: parallel reports carry a verdict,
// and /stats grows a populated verify section.
func TestVerifyOverHTTP(t *testing.T) {
	e := engineWith(t, graph2par.EngineConfig{Verify: true, CacheSize: 512})
	ts := httptest.NewServer(New(e).Handler())
	t.Cleanup(ts.Close)

	var resp analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	verdicts := 0
	for _, r := range resp.Reports {
		if r.Parallel != (r.Verdict != nil) {
			t.Errorf("line %d: Parallel=%v but Verdict=%v", r.Line, r.Parallel, r.Verdict)
		}
		if r.Verdict != nil {
			verdicts++
			if s := r.Verdict.Level.String(); s != "safe" && s != "unknown" && s != "unsafe" {
				t.Errorf("line %d: level %q outside the lattice", r.Line, s)
			}
		}
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if !stats.Verify.Enabled {
		t.Error("stats verify section disabled with verification on")
	}
	if total := stats.Verify.Safe + stats.Verify.Unknown + stats.Verify.Unsafe; int(total) < verdicts {
		t.Errorf("stats count %d verdicts, response carried %d", total, verdicts)
	}
}

func TestVerifyOffKeepsResponsesBare(t *testing.T) {
	ts := server(t)
	var resp analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, r := range resp.Reports {
		if r.Verdict != nil {
			t.Errorf("line %d: verdict attached with verification off", r.Line)
		}
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Verify.Enabled {
		t.Error("stats verify section enabled with verification off")
	}
}
