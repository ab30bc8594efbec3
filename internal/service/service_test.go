package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/obs"
)

// smallConfig is a fast simulation spec used throughout the tests.
func smallConfig() eadvfs.Config {
	return eadvfs.Config{Horizon: 500, Policy: "ea-dvfs", Capacity: 300, Seed: 7}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The service contract in one test: a cached response carries the same
// config digest a run manifest records, and its result payload is
// byte-identical to marshalling the result of running the config directly
// with the library (which is exactly what easim does).
func TestSimMatchesDirectRunAndManifestDigest(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallConfig()

	resp := postJSON(t, ts, "/v1/sim", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	body1 := readBody(t, resp)

	var env response
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatal(err)
	}

	// Digest contract: same key a run manifest for this config records.
	man, err := obs.NewManifest("easim", cfg.Policy, map[string]uint64{"seed": cfg.Seed}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Digest != man.Digest {
		t.Fatalf("service digest %s != manifest digest %s", env.Digest, man.Digest)
	}
	if got := resp.Header.Get("X-Config-Digest"); got != man.Digest {
		t.Fatalf("X-Config-Digest %s != manifest digest %s", got, man.Digest)
	}

	// Payload contract: byte-identical to a direct library run.
	direct, err := eadvfs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(env.Result), want) {
		t.Fatalf("service result diverges from direct run:\n%s\nvs\n%s", env.Result, want)
	}

	// Cache contract: the repeat response is byte-identical, marked hit.
	resp2 := postJSON(t, ts, "/v1/sim", cfg)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if body2 := readBody(t, resp2); !bytes.Equal(body1, body2) {
		t.Fatalf("cached response not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
}

// N concurrent identical requests must trigger exactly one engine run and
// N byte-identical responses — the single-flight guarantee. Run under
// -race this also exercises the cache's synchronization.
func TestSingleFlightConcurrentIdenticalRequests(t *testing.T) {
	const n = 24
	var runs, gate = make(chan struct{}, n), make(chan struct{})
	s := New(Options{Workers: 4})
	s.runSim = func(ctx context.Context, cfg eadvfs.Config) (*eadvfs.Result, error) {
		runs <- struct{}{}
		<-gate // hold the computation until every request has arrived
		return eadvfs.RunContext(ctx, cfg)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallConfig()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts, "/v1/sim", cfg)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = readBody(t, resp)
		}(i)
	}
	// Release the leader once it is computing; waiters join its entry.
	<-runs
	time.Sleep(50 * time.Millisecond) // let the other requests reach the cache
	close(gate)
	wg.Wait()

	if extra := len(runs); extra != 0 {
		t.Fatalf("%d extra engine runs beyond the single flight", extra)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	var miss, hit, join float64
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		switch {
		case strings.HasPrefix(line, `easerve_cache_requests_total{outcome="miss"}`):
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &miss)
		case strings.HasPrefix(line, `easerve_cache_requests_total{outcome="hit"}`):
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &hit)
		case strings.HasPrefix(line, `easerve_cache_requests_total{outcome="join"}`):
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &join)
		}
	}
	if miss != 1 {
		t.Fatalf("cache misses = %v, want exactly 1", miss)
	}
	if hit+join != n-1 {
		t.Fatalf("hit(%v) + join(%v) = %v, want %d", hit, join, hit+join, n-1)
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readBody(t, resp))
}

// When the pool and queue are full, further distinct requests are shed
// with 429 and a Retry-After hint instead of queuing unboundedly.
func TestOverloadSheds429(t *testing.T) {
	block := make(chan struct{})
	s := New(Options{Workers: 1, Queue: 1, RetryAfter: 2 * time.Second})
	s.runSim = func(ctx context.Context, cfg eadvfs.Config) (*eadvfs.Result, error) {
		<-block
		return &eadvfs.Result{Policy: cfg.Policy}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	distinct := func(i int) eadvfs.Config {
		c := smallConfig()
		c.Seed = uint64(100 + i)
		return c
	}

	// Occupy the worker, then the queue slot.
	results := make(chan *http.Response, 2)
	for i := 0; i < 2; i++ {
		go func(i int) { results <- postJSON(t, ts, "/v1/sim", distinct(i)) }(i)
	}
	waitFor(t, func() bool { return len(s.slots) == 1 && len(s.queued) == 1 })

	// A third distinct request finds pool and queue full: shed.
	resp := postJSON(t, ts, "/v1/sim", distinct(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, readBody(t, resp))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	readBody(t, resp)

	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.StatusCode != http.StatusOK {
			t.Fatalf("blocked request finished with %d", r.StatusCode)
		}
		readBody(t, r)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// After BeginDrain, compute endpoints refuse with 503 and /healthz goes
// unhealthy, while /metrics and /version stay available.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.BeginDrain()

	resp := postJSON(t, ts, "/v1/sim", smallConfig())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sim during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain refusal missing Retry-After")
	}
	readBody(t, resp)

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", h.StatusCode)
	}
	readBody(t, h)

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m.StatusCode != http.StatusOK {
		t.Fatalf("metrics during drain: %d, want 200", m.StatusCode)
	}
	readBody(t, m)
}

// Engine failures surface as 400 (deterministic property of the config)
// and are not cached: the digest can be retried.
func TestBadConfigRejectedAndNotCached(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallConfig()
	cfg.Policy = "no-such-policy"
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/v1/sim", cfg)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, resp.StatusCode)
		}
		readBody(t, resp)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("failed computation left %d cache entries", n)
	}
}

// Unknown JSON fields are rejected loudly — a typoed field must not
// silently simulate the default configuration.
func TestUnknownFieldRejected(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sim", "application/json",
		strings.NewReader(`{"Horizon": 500, "Policyy": "lsa"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	readBody(t, resp)
}

// A compute budget shorter than the run maps to 504 gateway timeout.
func TestTimeoutMapsTo504(t *testing.T) {
	s := New(Options{Workers: 1, Timeout: time.Nanosecond})
	s.runSim = func(ctx context.Context, cfg eadvfs.Config) (*eadvfs.Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("run cancelled: %w", ctx.Err())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts, "/v1/sim", smallConfig())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
}

// A horizon no run could finish is cut off by the compute timeout like any
// other slow request: the engine streams job releases, so memory stays
// bounded while it runs, and the server answers the next request.
func TestHugeHorizonTimesOutAndServerRecovers(t *testing.T) {
	s := New(Options{Workers: 1, Timeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(`{"Horizon":1e300}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}

	resp = postJSON(t, ts, "/v1/sim", smallConfig())
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d; body %s", resp.StatusCode, body)
	}
}

// A sweep response equals marshalling the sweep run directly, and repeats
// hit the cache.
func TestSweepMatchesDirectAndCaches(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiment.DefaultSpec()
	spec.Horizon = 500
	spec.Replications = 2
	spec.Capacities = []float64{300}
	req := SweepRequest{Kind: "missrate", Spec: spec, Policies: []string{"lsa"}}

	resp := postJSON(t, ts, "/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	body1 := readBody(t, resp)

	var env response
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatal(err)
	}
	direct, err := experiment.MissRateSweep(spec, []string{"lsa"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(env.Result), want) {
		t.Fatalf("sweep result diverges from direct run:\n%s\nvs\n%s", env.Result, want)
	}

	resp2 := postJSON(t, ts, "/v1/sweep", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat sweep X-Cache = %q, want hit", got)
	}
	if body2 := readBody(t, resp2); !bytes.Equal(body1, body2) {
		t.Fatal("cached sweep response not byte-identical")
	}
}

// A partial sweep spec is filled from the paper defaults, and spelling a
// default out vs omitting it names the same sweep — same digest, shared
// cache entry.
func TestSweepSpecNormalization(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spelled := experiment.DefaultSpec()
	spelled.Horizon = 500
	spelled.Replications = 2
	spelled.Capacities = []float64{300}

	partial := experiment.Spec{Horizon: 500, Replications: 2, Capacities: []float64{300}}

	r1 := postJSON(t, ts, "/v1/sweep", SweepRequest{Kind: "missrate", Spec: spelled, Policies: []string{"lsa"}})
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("spelled-out spec: status %d: %s", r1.StatusCode, readBody(t, r1))
	}
	d1 := r1.Header.Get("X-Config-Digest")
	readBody(t, r1)

	r2 := postJSON(t, ts, "/v1/sweep", SweepRequest{Kind: "missrate", Spec: partial, Policies: []string{"lsa"}})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("partial spec: status %d: %s", r2.StatusCode, readBody(t, r2))
	}
	if got := r2.Header.Get("X-Config-Digest"); got != d1 {
		t.Fatalf("partial spec digest %s != spelled-out digest %s", got, d1)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("normalized repeat X-Cache = %q, want hit", got)
	}
	readBody(t, r2)
}

// Unknown sweep kinds and empty policy lists fail fast with 400.
func TestSweepValidation(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, req := range []SweepRequest{
		{Kind: "nope", Spec: experiment.DefaultSpec(), Policies: []string{"lsa"}},
		{Kind: "missrate", Spec: experiment.DefaultSpec()},
	} {
		resp := postJSON(t, ts, "/v1/sweep", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("kind=%q policies=%v: status %d, want 400", req.Kind, req.Policies, resp.StatusCode)
		}
		readBody(t, resp)
	}
}

// ?events=1 streams the run's JSONL event log, which must validate
// against schema v1 end to end.
func TestEventStreamIsValidJSONL(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := smallConfig()
	raw, _ := json.Marshal(cfg)
	resp, err := http.Post(ts.URL+"/v1/sim?events=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body := readBody(t, resp)
	if len(body) == 0 {
		t.Fatal("empty event stream")
	}
	n, err := obs.CheckJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream violates JSONL schema: %v", err)
	}
	if n == 0 {
		t.Fatal("stream contained no lines")
	}
}

// The cache evicts FIFO beyond its bound but never loses correctness:
// an evicted digest simply recomputes.
func TestCacheEviction(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := uint64(1); seed <= 3; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		resp := postJSON(t, ts, "/v1/sim", cfg)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		readBody(t, resp)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want bound 2", n)
	}

	// Seed 1 was evicted: re-requesting recomputes (miss, not hit).
	cfg := smallConfig()
	cfg.Seed = 1
	resp := postJSON(t, ts, "/v1/sim", cfg)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("evicted digest X-Cache = %q, want miss", got)
	}
	readBody(t, resp)
}

// A cancelled sweep surfaces the partial-aggregation error through the
// HTTP error mapping (the leader's context dies with the client).
func TestStatusOfMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errOverload, http.StatusTooManyRequests},
		{errDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("wrap: %w", context.Canceled), http.StatusServiceUnavailable},
		{&experiment.CancelledError{Total: 4, Done: 1, Skipped: 3, Err: context.Canceled}, http.StatusServiceUnavailable},
		{&experiment.PanicError{}, http.StatusInternalServerError},
		{&experiment.TransientError{Err: errors.New("x")}, http.StatusServiceUnavailable},
		{errors.New("sim: no runnable configuration"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// GET on compute endpoints is refused with 405 and an Allow header.
func TestMethodNotAllowed(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/sim", "/v1/sweep"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") != http.MethodPost {
			t.Fatalf("GET %s: Allow = %q", path, resp.Header.Get("Allow"))
		}
		readBody(t, resp)
	}
}

// /version reports the build identity as JSON.
func TestVersionEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Tool      string `json:"tool"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(readBody(t, resp), &v); err != nil {
		t.Fatal(err)
	}
	if v.Tool != "easerve" || v.GoVersion == "" {
		t.Fatalf("version payload %+v", v)
	}
}

// The cache bounds are LRU over both entry count and byte budget: a
// lookup refreshes recency, so the least-recently-touched digest is the
// one to go, and evictions are counted in the metrics.
func TestCacheEvictionLRUAndBytes(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed uint64) *http.Response {
		cfg := smallConfig()
		cfg.Seed = seed
		resp := postJSON(t, ts, "/v1/sim", cfg)
		readBody(t, resp)
		return resp
	}
	post(1)
	post(2)
	post(1) // refresh seed 1: seed 2 becomes least recently used
	post(3) // evicts seed 2
	if got := post(1).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("recently-used digest evicted: X-Cache = %q, want hit", got)
	}
	if got := post(2).Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("LRU digest retained: X-Cache = %q, want miss", got)
	}
	if !strings.Contains(metricsText(t, ts), "easerve_cache_evictions_total") {
		t.Fatal("easerve_cache_evictions_total not exported")
	}

	// Byte budget: with a budget smaller than any result, every completion
	// evicts immediately — responses still succeed, nothing is retained.
	sb := New(Options{Workers: 1, CacheBytes: 1})
	tsb := httptest.NewServer(sb.Handler())
	defer tsb.Close()
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		resp := postJSON(t, tsb, "/v1/sim", cfg)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		readBody(t, resp)
	}
	if n := sb.cache.len(); n != 0 {
		t.Fatalf("1-byte budget retained %d entries", n)
	}
	if b := sb.cache.bytesUsed(); b != 0 {
		t.Fatalf("1-byte budget accounts %d bytes", b)
	}
	var evictions float64
	for _, line := range strings.Split(metricsText(t, tsb), "\n") {
		if strings.HasPrefix(line, "easerve_cache_evictions_total") {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &evictions)
		}
	}
	if evictions != 2 {
		t.Fatalf("evictions = %v, want 2", evictions)
	}
}

// Oversized request bodies are refused with 413 before any decode work —
// a hostile spec cannot balloon a worker's memory.
func TestBodyTooLarge413(t *testing.T) {
	s := New(Options{MaxBodyBytes: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"padding_field_that_does_not_exist": "` + strings.Repeat("x", 256) + `"}`
	for _, path := range []string{"/v1/sim", "/v1/sweep"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s: status %d, want 413; body %s", path, resp.StatusCode, readBody(t, resp))
		}
		readBody(t, resp)
	}

	// A body within the bound still decodes (and then fails validation,
	// not the size check).
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(`{"Horizon": -1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatal("small body refused as too large")
	}
	readBody(t, resp)
}

// Single flight under leader abandonment: when the leading request's
// context is cancelled mid-run, waiting duplicates must observe a clean
// error (or a result) promptly — never a hang on an entry nobody will
// complete. Run under -race.
func TestLeaderCancellationUnblocksWaiters(t *testing.T) {
	computing := make(chan struct{})
	s := New(Options{Workers: 2})
	s.runSim = func(ctx context.Context, cfg eadvfs.Config) (*eadvfs.Result, error) {
		close(computing)
		<-ctx.Done() // the leader's request context: dies when it disconnects
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw, err := json.Marshal(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(raw))
		if err != nil {
			leaderDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			readBody(t, resp)
		}
		leaderDone <- err
	}()
	<-computing // the leader owns the cache entry and is inside the engine

	// Waiters join the leader's entry, then the leader walks away.
	const waiters = 4
	statuses := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			readBody(t, resp)
			statuses <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.cacheJoin.Value()+s.cacheHit.Value() >= waiters })
	cancelLeader()
	<-leaderDone

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters hung after leader cancellation")
	}
	close(statuses)
	for code := range statuses {
		if code != http.StatusServiceUnavailable {
			t.Fatalf("waiter got %d, want 503 (clean retryable error)", code)
		}
	}
	// The failed computation is not cached: the digest can be retried.
	if n := s.cache.len(); n != 0 {
		t.Fatalf("abandoned computation left %d cache entries", n)
	}
}

// A sharded sweep request computes exactly the shard's raw cells — the
// payload is byte-identical to running the shard with the library — and
// sharded/unsharded requests name different cache keys.
func TestShardedSweepMatchesRunShard(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiment.DefaultSpec()
	spec.Horizon = 500
	spec.Replications = 4
	spec.Capacities = []float64{300}
	policies := []string{"lsa"}

	shards, err := experiment.PlanShards("missrate", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]bool{}
	for i := range shards {
		req := SweepRequest{Kind: "missrate", Spec: spec, Policies: policies, Shard: &shards[i]}
		resp := postJSON(t, ts, "/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		digests[resp.Header.Get("X-Config-Digest")] = true
		var env response
		if err := json.Unmarshal(readBody(t, resp), &env); err != nil {
			t.Fatal(err)
		}
		direct, err := experiment.RunShard("missrate", spec, policies, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(env.Result), want) {
			t.Fatalf("shard %d result diverges from direct run", i)
		}
	}
	whole := postJSON(t, ts, "/v1/sweep", SweepRequest{Kind: "missrate", Spec: spec, Policies: policies})
	digests[whole.Header.Get("X-Config-Digest")] = true
	readBody(t, whole)
	if len(digests) != 3 {
		t.Fatalf("expected 3 distinct digests (2 shards + whole), got %d", len(digests))
	}

	// A shard that does not fit the spec is refused up front.
	bad := experiment.Shard{Index: 0, Count: 1, RepLo: 0, RepHi: 99, CapLo: 0, CapHi: 1}
	resp := postJSON(t, ts, "/v1/sweep", SweepRequest{Kind: "missrate", Spec: spec, Policies: policies, Shard: &bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid shard: status %d, want 400", resp.StatusCode)
	}
	readBody(t, resp)
}
