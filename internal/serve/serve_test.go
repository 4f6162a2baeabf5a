package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graph2par"
	"graph2par/internal/cache"
	"graph2par/internal/cparse"
)

var (
	testEngine     *graph2par.Engine
	testCkptDir    string
	testEngineOnce sync.Once
	testEngineErr  error
)

// engine trains one small cached engine shared by the whole handler
// suite (training dominates the suite's runtime; do it once, at the
// smallest scale that still yields a working model — the handler tests
// check HTTP semantics and HTTP-vs-direct agreement, not accuracy) and
// saves it to the checkpoint engineWith builds other configurations
// from.
func engine(t *testing.T) *graph2par.Engine {
	t.Helper()
	testEngineOnce.Do(func() {
		testEngine, testEngineErr = graph2par.NewEngine(graph2par.EngineConfig{
			TrainScale: 0.008, Epochs: 2, Seed: 11, Quiet: true, CacheSize: 512,
		})
		if testEngineErr != nil {
			return
		}
		if testCkptDir, testEngineErr = os.MkdirTemp("", "serve-test-"); testEngineErr != nil {
			return
		}
		testEngineErr = testEngine.Save(filepath.Join(testCkptDir, "model.ckpt"))
	})
	if testEngineErr != nil {
		t.Fatal(testEngineErr)
	}
	return testEngine
}

// engineWith builds an engine with cfg from the shared engine's
// checkpoint.
func engineWith(t *testing.T, cfg graph2par.EngineConfig) *graph2par.Engine {
	t.Helper()
	engine(t)
	cfg.ModelPath = filepath.Join(testCkptDir, "model.ckpt")
	e, err := graph2par.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testCkptDir != "" {
		os.RemoveAll(testCkptDir)
	}
	os.Exit(code)
}

func server(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(engine(t)).Handler())
	t.Cleanup(ts.Close)
	return ts
}

const program = `
int main() {
    int a[64], b[64];
    int i, s = 0;
    for (i = 0; i < 64; i++) b[i] = i;
    for (i = 0; i < 64; i++) a[i] = b[i] * 2;
    for (i = 1; i < 64; i++) a[i] = a[i-1] + 1;
    for (i = 0; i < 64; i++) s += a[i];
    return s;
}
`

// postJSON marshals body, posts it, and decodes the JSON response into
// out, returning the status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	code, err := tryPostJSON(url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// tryPostJSON is postJSON returning its failure instead of calling
// t.Fatal, for goroutines other than the test's own.
func tryPostJSON(url string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// postJSONResp is postJSON exposing the raw response (header checks).
func postJSONResp(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestAnalyzeEndpoint(t *testing.T) {
	ts := server(t)
	var resp analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Loops != 4 || len(resp.Reports) != 4 {
		t.Fatalf("loops = %d, reports = %d, want 4", resp.Loops, len(resp.Reports))
	}
	// The response must match a direct engine call (minus DOT, which is
	// opt-in over the wire).
	direct, err := engine(t).AnalyzeSourceContext(context.Background(), program)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		direct[i].DOT = ""
	}
	if !reflect.DeepEqual(resp.Reports, direct) {
		t.Error("HTTP reports differ from direct AnalyzeSourceContext")
	}
	for _, r := range resp.Reports {
		if r.DOT != "" {
			t.Error("DOT should be omitted unless requested")
		}
	}

	var withDot analyzeResponse
	postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program, Options: requestOptions{DOT: true}}, &withDot)
	if len(withDot.Reports) == 0 || withDot.Reports[0].DOT == "" {
		t.Error("options.dot:true should include the Graphviz rendering")
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	ts := server(t)

	// Strict decoding: the body must be exactly one envelope, so malformed
	// JSON, unknown fields (catching client typos), fields the envelope
	// does not have and anything after the envelope all get 400.
	env := string(mustJSON(t, requestEnvelope{Source: program}))
	withField := func(field string) string { return strings.TrimSuffix(env, "}") + "," + field + "}" }
	for name, body := range map[string]string{
		"malformed JSON":  "{not json",
		"unknown field":   `{"sorce": "x"}`,
		"top-level dot":   withField(`"dot": true`),
		"options.workers": withField(`"options": {"workers": 1}`),
		"options.batch":   withField(`"options": {"batch": 1}`),
		"trailing bytes":  env + " junk",
		"second envelope": env + env,
	} {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorEnvelope
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != codeBadRequest {
			t.Errorf("%s: status %d code %q, want 400 %q", name, resp.StatusCode, e.Error.Code, codeBadRequest)
		}
	}
	// Trailing whitespace is not data: an encoder's final newline is fine.
	if code := postRaw(t, ts.URL+"/v1/analyze", env+"\n\t "); code != http.StatusOK {
		t.Errorf("envelope + trailing whitespace: status = %d, want 200", code)
	}

	// missing source
	var e errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{}, &e); code != http.StatusBadRequest {
		t.Errorf("empty source: status = %d, want 400", code)
	}
	if e.Error.Code != codeBadRequest || e.Error.Retryable {
		t.Errorf("empty source envelope = %+v, want code %q, not retryable", e.Error, codeBadRequest)
	}

	// C that does not parse: the message is the engine's own parse error
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: "int main() { for (i=0 i<10; i++) ; }"}, &e); code != http.StatusUnprocessableEntity {
		t.Errorf("unparsable C: status = %d, want 422", code)
	}
	_, directErr := engine(t).AnalyzeSourceContext(context.Background(), "int main() { for (i=0 i<10; i++) ; }")
	if e.Error.Code != codeUnparsable || directErr == nil || e.Error.Message != directErr.Error() {
		t.Errorf("unparsable envelope = %+v, want code %q with the engine's error %v", e.Error, codeUnparsable, directErr)
	}

	// negative deadline
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program, DeadlineMS: -1}, &e); code != http.StatusBadRequest {
		t.Errorf("negative deadline: status = %d, want 400", code)
	}

	// wrong method carries the Allow header
	wrong, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	wrong.Body.Close()
	if wrong.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status = %d, want 405", wrong.StatusCode)
	}
	if allow := wrong.Header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		t.Errorf("405 Allow = %q, want POST", allow)
	}

	// only the /v1 routes exist, and any other path gets the error
	// envelope like every other failure
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/analyze"},
		{http.MethodGet, "/v1/nope"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorEnvelope
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusNotFound || e.Error.Code != codeNotFound {
			t.Errorf("%s %s: status %d code %q, want 404 %q", route.method, route.path, resp.StatusCode, e.Error.Code, codeNotFound)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", route.method, route.path, ct)
		}
	}
}

// TestHostileSourcesKeepServing sends the two inputs that used to end the
// process with a stack overflow: a program whose DiscoPoP run recurses
// without bound (200, DiscoPoP not profilable) and an expression nested
// one level past cparse.MaxDepth (422 unparsable_source). It also sends a
// program whose arrays would take 480 MB of interpreter memory (200,
// DiscoPoP not profilable: the run's cell budget refuses it). The next
// ordinary request is still served.
func TestHostileSourcesKeepServing(t *testing.T) {
	ts := server(t)
	const recursive = `int f(int n) { return f(n + 1); }
int main() {
    int i, s = 0;
    for (i = 0; i < 8; i++) s += f(i);
    return s;
}
`
	const hugeArrays = `int a[4000000];
int b[4000000];
int c[4000000];
int d[4000000];
int e[4000000];
int main() {
    int i;
    for (i = 0; i < 4000000; i += 256) {
        a[i] = 1; b[i] = 1; c[i] = 1; d[i] = 1; e[i] = 1;
    }
    return 0;
}
`
	for _, tc := range []struct{ name, src string }{
		{"runaway recursion", recursive},
		{"huge arrays", hugeArrays},
	} {
		var resp analyzeResponse
		if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: tc.src}, &resp); code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", tc.name, code)
		}
		if len(resp.Reports) != 1 {
			t.Fatalf("%s: reports = %d, want 1", tc.name, len(resp.Reports))
		}
		for _, tv := range resp.Reports[0].Tools {
			if tv.Tool == "DiscoPoP" && tv.Processable {
				t.Errorf("%s: DiscoPoP processed it: %+v", tc.name, tv)
			}
		}
	}

	deep := "int main() { return " + strings.Repeat("(", cparse.MaxDepth+1) + "0" + strings.Repeat(")", cparse.MaxDepth+1) + "; }"
	var e errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: deep}, &e); code != http.StatusUnprocessableEntity || e.Error.Code != codeUnparsable {
		t.Errorf("deep nesting: status %d code %q, want 422 %q", code, e.Error.Code, codeUnparsable)
	}

	var resp analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &resp); code != http.StatusOK || len(resp.Reports) != 4 {
		t.Errorf("next request: status %d with %d reports, want 200 with 4", code, len(resp.Reports))
	}
}

// TestPrototypeSourceServes posts a file whose function prototype has no
// body to both analysis routes. The loop walk used to dereference the
// missing body, and the server dropped the connection.
func TestPrototypeSourceServes(t *testing.T) {
	ts := server(t)
	const src = "int g(int x);\nint main() { int i, s = 0; for (i = 0; i < 4; i++) s += g(i); return s; }\nint g(int x) { return x * 2; }"
	var one analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: src}, &one); code != http.StatusOK || len(one.Reports) != 1 {
		t.Errorf("/v1/analyze: status %d with %d reports, want 200 with 1", code, len(one.Reports))
	}
	var batch batchResponse
	if code := postJSON(t, ts.URL+"/v1/analyze/batch", requestEnvelope{Files: map[string]string{"proto.c": src}}, &batch); code != http.StatusOK || len(batch.Results["proto.c"]) != 1 {
		t.Errorf("/v1/analyze/batch: status %d with %d reports, want 200 with 1", code, len(batch.Results["proto.c"]))
	}
}

// postRaw posts body verbatim as application/json and returns the status.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestIngressHygiene pins the uniform request guards: non-JSON bodies
// get 415, oversized bodies 413, both wrapped in the error envelope.
func TestIngressHygiene(t *testing.T) {
	s := NewWithConfig(engine(t), ServeConfig{MaxBody: 256})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// wrong media type
	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(program))
	if err != nil {
		t.Fatal(err)
	}
	var e errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || e.Error.Code != codeUnsupportedType {
		t.Errorf("text/plain: status %d code %q, want 415 %q", resp.StatusCode, e.Error.Code, codeUnsupportedType)
	}

	// missing media type
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader("{}"))
	noCT, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	noCT.Body.Close()
	if noCT.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("absent Content-Type: status %d, want 415", noCT.StatusCode)
	}

	// body over the configured cap
	big, _ := json.Marshal(requestEnvelope{Source: strings.Repeat("x", 512)})
	resp2, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != codeBodyTooLarge {
		t.Errorf("oversized body: status %d code %q, want 413 %q", resp2.StatusCode, e.Error.Code, codeBodyTooLarge)
	}

	// a small envelope padded past the cap is still oversized, not malformed
	padded := `{"source": "x"}` + strings.Repeat(" ", 512)
	resp3, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp3, &e)
	if resp3.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != codeBodyTooLarge {
		t.Errorf("padded body: status %d code %q, want 413 %q", resp3.StatusCode, e.Error.Code, codeBodyTooLarge)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := server(t)
	files := map[string]string{"a.c": program, "b.c": program}
	var resp batchResponse
	if code := postJSON(t, ts.URL+"/v1/analyze/batch", requestEnvelope{Files: files}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != 2 || resp.ParseErrors != "" {
		t.Fatalf("results = %d files, parseErrors = %q", len(resp.Results), resp.ParseErrors)
	}
	if !reflect.DeepEqual(resp.Results["a.c"], resp.Results["b.c"]) {
		t.Error("identical files should produce identical reports")
	}

	// Partial failure: the broken file is reported, the good one analyzed.
	files["broken.c"] = "int main() { for (i=0 i<10; i++) ; }"
	var partial batchResponse
	if code := postJSON(t, ts.URL+"/v1/analyze/batch", requestEnvelope{Files: files}, &partial); code != http.StatusOK {
		t.Fatalf("partial batch: status = %d", code)
	}
	if !strings.Contains(partial.ParseErrors, "broken.c") {
		t.Errorf("parseErrors should name the failing file: %q", partial.ParseErrors)
	}
	if _, ok := partial.Results["broken.c"]; ok {
		t.Error("unparsable file should be omitted from results")
	}
	if len(partial.Results) != 2 {
		t.Errorf("parsable files analyzed = %d, want 2", len(partial.Results))
	}

	// Every file unparsable: same 422 contract as /v1/analyze.
	var allBad errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/analyze/batch",
		requestEnvelope{Files: map[string]string{"x.c": "not C at all {"}}, &allBad); code != http.StatusUnprocessableEntity {
		t.Errorf("all files failing: status = %d, want 422", code)
	}
	if allBad.Error.Code != codeUnparsable || allBad.Error.Message == "" {
		t.Errorf("all-failed envelope = %+v, want code %q with a message", allBad.Error, codeUnparsable)
	}

	// empty / wrong method
	var e errorEnvelope
	if code := postJSON(t, ts.URL+"/v1/analyze/batch", requestEnvelope{}, &e); code != http.StatusBadRequest {
		t.Errorf("empty files: status = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/analyze/batch", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze/batch: status = %d, want 405", code)
	}
}

func TestHealthz(t *testing.T) {
	ts := server(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := server(t)
	// Two identical requests: the second is served from the cache.
	postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, nil)
	postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, nil)

	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Workers < 1 {
		t.Errorf("workers = %d", st.Workers)
	}
	if st.Requests.Analyze < 2 {
		t.Errorf("analyze requests = %d, want ≥ 2", st.Requests.Analyze)
	}
	if !st.Cache.Enabled {
		t.Fatal("cache should be enabled on the test engine")
	}
	if st.Cache.Hits == 0 {
		t.Error("repeat query should produce cache hits")
	}
	if st.Admission.Enabled || st.RateLimit.Enabled {
		t.Error("admission/rate-limit sections should be disabled by default")
	}
	if code := postJSON(t, ts.URL+"/v1/stats", struct{}{}, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: status = %d, want 405", code)
	}
}

// TestStatsJSON pins the /v1/stats body bytes with the cache, peer,
// verify and rewrite sections enabled and disabled: each section is its
// snapshot type embedded beside Enabled (peer also keeps the owner-side
// counters), and the literals are the bytes the field-by-field copies
// used to produce, except that the peer section's replicas key now comes
// before served.
func TestStatsJSON(t *testing.T) {
	for _, tc := range []struct {
		resp statsResponse
		want string
	}{{
		resp: statsResponse{
			Cache: cacheStats{Enabled: true, Stats: cache.Stats{
				Capacity: 4096, Entries: 17, Hits: 40, Misses: 17, Evictions: 2}},
			Verify: verifyInfo{Enabled: true, VerifyStats: graph2par.VerifyStats{
				Safe: 11, Unknown: 4, Unsafe: 2}},
			Rewrite: rewriteInfo{Enabled: true, RewriteStats: graph2par.RewriteStats{
				Rewritten: 9, Atomic: 1, Suggestion: 7}},
		},
		want: `{"uptimeSeconds":0,"workers":0,"requests":{"analyze":0,"batch":0,"rewrite":0,"errors":0},` +
			`"admission":{"enabled":false,"inflight":0,"queued":0,"admitted":0,"shed":0},` +
			`"rateLimit":{"enabled":false,"clients":0,"limited":0},` +
			`"cache":{"enabled":true,"capacity":4096,"entries":17,"hits":40,"misses":17,"evictions":2},` +
			`"peer":{"enabled":false,"hits":0,"misses":0,"errors":0,"served":0,"notFound":0},` +
			`"verify":{"enabled":true,"safe":11,"unknown":4,"unsafe":2},` +
			`"rewrite":{"enabled":true,"rewritten":9,"atomic":1,"suggestion":7}}`,
	}, {
		want: `{"uptimeSeconds":0,"workers":0,"requests":{"analyze":0,"batch":0,"rewrite":0,"errors":0},` +
			`"admission":{"enabled":false,"inflight":0,"queued":0,"admitted":0,"shed":0},` +
			`"rateLimit":{"enabled":false,"clients":0,"limited":0},` +
			`"cache":{"enabled":false,"entries":0,"hits":0,"misses":0,"evictions":0},` +
			`"peer":{"enabled":false,"hits":0,"misses":0,"errors":0,"served":0,"notFound":0},` +
			`"verify":{"enabled":false,"safe":0,"unknown":0,"unsafe":0},` +
			`"rewrite":{"enabled":false,"rewritten":0,"atomic":0,"suggestion":0}}`,
	}, {
		resp: statsResponse{
			Peer: peerInfo{Enabled: true, PeerStats: PeerStats{
				Peers: 2, Live: 1, Hits: 5, Misses: 3, Errors: 1, NegativeHits: 2, Retries: 4,
				WarmsSent: 6, WarmErrors: 1,
				Replicas: []PeerReplica{{Base: "http://10.0.0.2:8080", State: "down", Failures: 3,
					Hits: 5, Misses: 3, Errors: 1, Warms: 6}}},
				Served: 8, NotFound: 2, Warmed: 3, WarmRejected: 1},
		},
		want: `{"uptimeSeconds":0,"workers":0,"requests":{"analyze":0,"batch":0,"rewrite":0,"errors":0},` +
			`"admission":{"enabled":false,"inflight":0,"queued":0,"admitted":0,"shed":0},` +
			`"rateLimit":{"enabled":false,"clients":0,"limited":0},` +
			`"cache":{"enabled":false,"entries":0,"hits":0,"misses":0,"evictions":0},` +
			`"peer":{"enabled":true,"peers":2,"live":1,"hits":5,"misses":3,"errors":1,"negativeHits":2,` +
			`"retries":4,"warmsSent":6,"warmErrors":1,"replicas":[{"base":"http://10.0.0.2:8080",` +
			`"state":"down","failures":3,"hits":5,"misses":3,"errors":1,"warms":6}],` +
			`"served":8,"notFound":2,"warmed":3,"warmRejected":1},` +
			`"verify":{"enabled":false,"safe":0,"unknown":0,"unsafe":0},` +
			`"rewrite":{"enabled":false,"rewritten":0,"atomic":0,"suggestion":0}}`,
	}} {
		got, err := json.Marshal(tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("stats body:\n got %s\nwant %s", got, tc.want)
		}
	}
}

// TestConcurrentAnalyze posts the same source from many goroutines at
// once — under -race this is the serving path's concurrency check, and
// every response must equal the sequential answer.
func TestConcurrentAnalyze(t *testing.T) {
	ts := server(t)
	var want analyzeResponse
	if code := postJSON(t, ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &want); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	errs := make(chan string, goroutines*4)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var got analyzeResponse
				code, err := tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &got)
				if err != nil {
					errs <- err.Error()
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Sprintf("status %d", code)
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- "concurrent response differs from sequential answer"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestMicroBatchCoalescesConcurrentClients is named for the micro-batcher
// that once coalesced concurrent /v1/analyze requests; the contract it
// pins outlived it: four clients posting distinct sources at once each
// get exactly the response the direct engine call gives for their own
// source — not swapped, not torn — and /v1/stats counts four requests.
func TestMicroBatchCoalescesConcurrentClients(t *testing.T) {
	ts := server(t)

	// Distinct sources with distinct loop counts so a swapped or torn
	// response is unmissable.
	sources := make([]string, 4)
	wants := make([]analyzeResponse, len(sources))
	for i := range sources {
		var b strings.Builder
		b.WriteString("int main() {\n    int a[64];\n    int i, s = 0;\n")
		for l := 0; l <= i; l++ {
			b.WriteString("    for (i = 0; i < 64; i++) s += a[i];\n")
		}
		b.WriteString("    return s;\n}\n")
		sources[i] = b.String()
		direct, err := engine(t).AnalyzeSourceContext(context.Background(), sources[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = analyzeResponse{Loops: i + 1, Reports: stripDOT(direct, false)}
	}

	var wg sync.WaitGroup
	got := make([]analyzeResponse, len(sources))
	codes := make([]int, len(sources))
	errs := make([]error, len(sources))
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], errs[i] = tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: sources[i]}, &got[i])
		}(i)
	}
	wg.Wait()

	for i := range sources {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if !reflect.DeepEqual(got[i], wants[i]) {
			t.Errorf("client %d: concurrent response differs from direct AnalyzeSourceContext", i)
		}
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests.Analyze != 4 || st.Requests.Errors != 0 {
		t.Errorf("requests analyze=%d errors=%d, want 4 and 0", st.Requests.Analyze, st.Requests.Errors)
	}
}

// TestMicroBatchPerRequestErrors is named for the micro-batcher too; it
// pins error isolation between concurrent requests: an unparsable request
// gets its own 422 carrying the engine's parse error verbatim, while the
// parsable requests in flight beside it are answered normally.
func TestMicroBatchPerRequestErrors(t *testing.T) {
	ts := server(t)

	bad := "int main() { for (i=0 i<10; i++) ; }"
	_, directErr := engine(t).AnalyzeSourceContext(context.Background(), bad)
	if directErr == nil {
		t.Fatal("reference source should fail to parse")
	}

	var wg sync.WaitGroup
	var goodA, goodB analyzeResponse
	var gotErr errorEnvelope
	var codeA, codeB, codeBad int
	var errA, errB, errBad error
	wg.Add(3)
	go func() {
		defer wg.Done()
		codeA, errA = tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &goodA)
	}()
	go func() {
		defer wg.Done()
		codeBad, errBad = tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: bad}, &gotErr)
	}()
	go func() {
		defer wg.Done()
		codeB, errB = tryPostJSON(ts.URL+"/v1/analyze", requestEnvelope{Source: program}, &goodB)
	}()
	wg.Wait()
	for _, err := range []error{errA, errB, errBad} {
		if err != nil {
			t.Fatal(err)
		}
	}

	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Errorf("good requests: codes %d, %d, want 200", codeA, codeB)
	}
	if codeBad != http.StatusUnprocessableEntity {
		t.Errorf("bad request: code %d, want 422", codeBad)
	}
	if gotErr.Error.Code != codeUnparsable || gotErr.Error.Message != directErr.Error() {
		t.Errorf("parse error envelope = %+v, want code %q with the engine's error %q", gotErr.Error, codeUnparsable, directErr.Error())
	}
	if goodA.Loops != 4 || !reflect.DeepEqual(goodA, goodB) {
		t.Error("good requests beside a failing one got wrong reports")
	}
}
