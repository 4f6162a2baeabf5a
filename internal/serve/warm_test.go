package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"graph2par"
)

// warmPost POSTs a raw body to /v1/cache/<key> with the given headers
// and returns the response.
func warmPost(t *testing.T, url, key, fingerprint, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cache/"+key, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if fingerprint != "" {
		req.Header.Set(FingerprintHeader, fingerprint)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCacheWarmEndpoint exercises the push side of the peer cache
// protocol: an authenticated POST installs the report (observable via
// the pull side), and every rejection path answers with the structured
// envelope without touching the cache.
func TestCacheWarmEndpoint(t *testing.T) {
	ts := server(t)
	fp := engine(t).Fingerprint()
	key := strings.Repeat("ab", 32)
	body, _ := json.Marshal(graph2par.LoopReport{Line: 42, Source: "for (warm)"})

	// The happy path: fingerprint matches, report installs, pull serves it.
	resp := warmPost(t, ts.URL, key, fp, "application/json", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("authenticated warm push: status %d, want 204", resp.StatusCode)
	}
	got, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("pull after push: status %d, want 200", got.StatusCode)
	}
	var pulled graph2par.LoopReport
	if err := json.NewDecoder(got.Body).Decode(&pulled); err != nil {
		t.Fatal(err)
	}
	if pulled.Line != 42 || pulled.Source != "for (warm)" {
		t.Errorf("pulled report %+v does not match the pushed one", pulled)
	}

	rejections := []struct {
		name        string
		key, fp, ct string
		body        []byte
		status      int
		code        string
	}{
		{"missing fingerprint", key, "", "application/json", body, http.StatusForbidden, "fingerprint_mismatch"},
		{"wrong fingerprint", key, "not-the-model", "application/json", body, http.StatusForbidden, "fingerprint_mismatch"},
		{"wrong content type", key, fp, "text/plain", body, http.StatusUnsupportedMediaType, "unsupported_media_type"},
		{"malformed body", key, fp, "application/json", []byte("{"), http.StatusBadRequest, "bad_request"},
		{"malformed key", "zz" + key[2:], fp, "application/json", body, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range rejections {
		t.Run(tc.name, func(t *testing.T) {
			resp := warmPost(t, ts.URL, tc.key, tc.fp, tc.ct, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("rejection body is not the error envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("error code %q, want %q", env.Error.Code, tc.code)
			}
		})
	}

	// Wrong method gets the shared 405 with both verbs advertised.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache/"+key, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Errorf("Allow header %q should advertise GET and POST", allow)
	}

	// The stats endpoint reports both sides of the protocol.
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var parsed struct {
		Peer struct {
			Served       uint64 `json:"served"`
			Warmed       uint64 `json:"warmed"`
			WarmRejected uint64 `json:"warmRejected"`
		} `json:"peer"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Peer.Warmed != 1 {
		t.Errorf("stats peer.warmed = %d, want 1", parsed.Peer.Warmed)
	}
	if parsed.Peer.Served == 0 {
		t.Errorf("stats peer.served = 0, want the pull above counted")
	}
	if parsed.Peer.WarmRejected != uint64(len(rejections)) {
		t.Errorf("stats peer.warmRejected = %d, want %d", parsed.Peer.WarmRejected, len(rejections))
	}
}
