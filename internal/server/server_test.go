package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
	"hamlet/internal/synth"
)

// testConfig keeps generation cheap: the smallest scale the smoke paths use.
func testConfig() Config {
	return Config{Scale: 0.02, Seed: 1}
}

// newTestServer returns a server and an httptest front for handler tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postDecide marshals req and POSTs it to the decide endpoint.
func postDecide(t *testing.T, ts *httptest.Server, req DecideRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, body)
}

func postRaw(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestDecideSingle(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != RequestSchemaVersion {
		t.Errorf("response v = %d, want %d", out.V, RequestSchemaVersion)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(out.Results))
	}
	r := out.Results[0]
	if r.Dataset != "Walmart" || r.Scale != 0.02 || r.Seed != 1 || r.Rule != "TR" {
		t.Errorf("echoed tuple = %+v", r)
	}
	if len(r.Decisions) == 0 {
		t.Fatal("no decisions for Walmart")
	}
	for _, d := range r.Decisions {
		if d.FK == "" || d.Attr == "" || d.DFK <= 0 {
			t.Errorf("implausible decision %+v", d)
		}
	}
}

// TestDecideBatch pins the batch acceptance criterion: a 100-decision batch
// is answered in one round trip, in request order, and the cached stats make
// it cheap (every query after the first hits the registry).
func TestDecideBatch(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	queries := make([]Query, 100)
	for i := range queries {
		queries[i] = Query{Dataset: "Walmart"}
		if i%2 == 1 {
			queries[i].Rule = "ROR"
		}
	}
	resp, data := postDecide(t, ts, DecideRequest{V: RequestSchemaVersion, Requests: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, data)
	}
	var out DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 100 {
		t.Fatalf("results = %d, want 100", len(out.Results))
	}
	for i, r := range out.Results {
		wantRule := "TR"
		if i%2 == 1 {
			wantRule = "ROR"
		}
		if r.Rule != wantRule {
			t.Fatalf("result %d rule = %q, want %q (order not preserved?)", i, r.Rule, wantRule)
		}
	}
	// One dataset generated once, despite 100 queries.
	if n := s.Registry().Len(); n != 1 {
		t.Errorf("registry holds %d entries after a single-dataset batch, want 1", n)
	}
}

// TestDecideAvoidTableOverHTTP: every decision path answers the committed
// §5 conformance table, testdata/conformance.json, decision for decision:
// the in-process Advisor.Decide on spec.Generate, the server's registry Get
// followed by DecideFromStats, and POST /v1/decide. It covers every mimic
// under both rules at scales 0.02 and 0.1 and seeds 1 and 3. At scale 0.02,
// seed 3 the TR rule avoids the paper's 7 joins and never considers the
// open-domain Searches FK.
func TestDecideAvoidTableOverHTTP(t *testing.T) {
	type key struct {
		dataset, rule string
		scale         float64
		seed          uint64
	}
	data, err := os.ReadFile(filepath.Join("testdata", "conformance.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []Result
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	table := make(map[key]Result, len(rows))
	for _, r := range rows {
		table[key{r.Dataset, r.Rule, r.Scale, r.Seed}] = r
	}

	s, ts := newTestServer(t, testConfig())
	rules := []core.Rule{core.TRRule, core.RORRule}
	var queries []Query
	var keys []key
	avoided := 0
	for _, scale := range []float64{0.02, 0.1} {
		for _, seed := range []uint64{1, 3} {
			for _, m := range synth.Mimics() {
				d, err := m.Generate(scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, rule := range rules {
					k := key{m.Name, rule.String(), scale, seed}
					want, ok := table[k]
					if !ok {
						t.Fatalf("%+v missing from the conformance table", k)
					}
					queries = append(queries, Query{Dataset: m.Name, Scale: scale, Seed: seed, Rule: rule.String()})
					keys = append(keys, k)

					adv := &core.Advisor{Rule: rule}
					decs, err := adv.Decide(d)
					if err != nil {
						t.Fatal(err)
					}
					if got := wireDecisions(decs); !reflect.DeepEqual(got, want.Decisions) {
						t.Errorf("%+v: Advisor.Decide = %+v, table %+v", k, got, want.Decisions)
					}
					e, err := s.Registry().Get(m.Name, scale, seed)
					if err != nil {
						t.Fatal(err)
					}
					if decs, err = adv.DecideFromStats(e.Stats); err != nil {
						t.Fatal(err)
					}
					if got := wireDecisions(decs); !reflect.DeepEqual(got, want.Decisions) {
						t.Errorf("%+v: registry + DecideFromStats = %+v, table %+v", k, got, want.Decisions)
					}

					if scale != 0.02 || seed != 3 || rule != core.TRRule {
						continue
					}
					for _, dec := range want.Decisions {
						if dec.Avoid {
							avoided++
						}
						if dec.Attr == "Searches" && dec.Considered {
							t.Errorf("%s/%s: open-domain FK considered under TR", m.Name, dec.Attr)
						}
					}
				}
			}
		}
	}
	if len(table) != len(keys) {
		t.Errorf("conformance table has %d rows, the test covers %d", len(table), len(keys))
	}
	if avoided != 7 {
		t.Errorf("TR avoids %d joins at scale 0.02, seed 3, want the paper's 7", avoided)
	}

	resp, body := postDecide(t, ts, DecideRequest{Requests: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var out DecideResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(queries))
	}
	for i, k := range keys {
		if got, want := out.Results[i], table[k]; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: /v1/decide = %+v, table %+v", k, got, want)
		}
	}
}

// TestDecideBodyMatchesEncoder: a 200 decide body is byte for byte what the
// handler wrote before answers were memoized, json.NewEncoder's encoding of
// a DecideResponse built from DecideFromStats, both on a key's first decide
// (which fills the entry's answer cell) and on the next (which replays it).
// The queries cover every mimic under both rules, each rule spelled in lower
// and upper case and omitted, with scale and seed given and defaulted, in
// batches of 1, 100 and MaxBatch. Each batch size gets a fresh registry, so
// its first request builds every answer it returns.
func TestDecideBodyMatchesEncoder(t *testing.T) {
	var variants []Query
	for _, m := range synth.Mimics() {
		for _, rule := range []string{"tr", "TR", "ror", "ROR", ""} {
			variants = append(variants,
				Query{Dataset: m.Name, Rule: rule},
				Query{Dataset: m.Name, Scale: 0.05, Seed: 3, Rule: rule})
		}
	}
	cfg := testConfig()
	cfg.Rule = core.RORRule // so an omitted rule is told apart from TR
	// want encodes qs the pre-memo way, on statistics from its own registry.
	oracle := registry.New()
	want := func(t *testing.T, qs []Query) []byte {
		t.Helper()
		resp := DecideResponse{V: RequestSchemaVersion, Results: make([]Result, len(qs))}
		for i, q := range qs {
			scale, seed, rule := q.Scale, q.Seed, cfg.Rule
			if scale == 0 {
				scale = cfg.Scale
			}
			if seed == 0 {
				seed = cfg.Seed
			}
			switch strings.ToUpper(q.Rule) {
			case "TR":
				rule = core.TRRule
			case "ROR":
				rule = core.RORRule
			}
			e, err := oracle.Get(q.Dataset, scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			decs, err := (&core.Advisor{Rule: rule}).DecideFromStats(e.Stats)
			if err != nil {
				t.Fatal(err)
			}
			resp.Results[i] = Result{Dataset: q.Dataset, Scale: scale, Seed: seed, Rule: rule.String(), Decisions: wireDecisions(decs)}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(t *testing.T, ts *httptest.Server, qs []Query) {
		t.Helper()
		expect := want(t, qs)
		for _, pass := range []string{"first", "second"} {
			resp, body := postDecide(t, ts, DecideRequest{Requests: qs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s request: status = %d, body: %s", pass, resp.StatusCode, body)
			}
			if !bytes.Equal(body, expect) {
				t.Fatalf("%s request of %d queries from %+v:\n got %s\nwant %s", pass, len(qs), qs[0], body, expect)
			}
		}
	}

	t.Run("batch=1", func(t *testing.T) {
		_, ts := newTestServer(t, cfg)
		for _, q := range variants {
			check(t, ts, []Query{q})
		}
	})
	for _, n := range []int{100, DefaultMaxBatch} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			_, ts := newTestServer(t, cfg)
			qs := make([]Query, n)
			for i := range qs {
				qs[i] = variants[i%len(variants)]
			}
			check(t, ts, qs)
		})
	}
}

// wireDecisions converts advisor verdicts to their wire form.
func wireDecisions(decs []core.Decision) []Decision {
	out := make([]Decision, len(decs))
	for i, d := range decs {
		out[i] = decisionFromCore(d)
	}
	return out
}

// TestHistogramsEmptyRunPrecision: an idle server's run-level snapshot
// carries the histograms' clamped precision, never the raw config value.
func TestHistogramsEmptyRunPrecision(t *testing.T) {
	for cfg, want := range map[int]int{-3: 0, obs.MaxPrecision + 5: obs.MaxPrecision, 0: obs.DefaultPrecision} {
		if got := New(Config{Precision: cfg}).Histograms()[obs.LatencyHist].Precision; got != want {
			t.Errorf("Precision %d: empty run-level snapshot at precision %d, want %d", cfg, got, want)
		}
	}
}

// malformedBodies are decide bodies the server must refuse with 400 and an
// error naming the problem. FuzzDecodeRequest starts from them too.
var malformedBodies = []struct {
	name string
	body string
	want string
}{
	{"truncated json", `{"requests": [`, "parse request"},
	{"empty batch", `{"requests": []}`, "empty batch"},
	{"missing requests", `{}`, "empty batch"},
	{"bad rule", `{"requests": [{"dataset": "Walmart", "rule": "XTREME"}]}`, "unknown rule"},
	{"bad scale", `{"requests": [{"dataset": "Walmart", "scale": 7}]}`, "outside (0, 1]"},
	{"negative scale", `{"requests": [{"dataset": "Walmart", "scale": -0.5}]}`, "outside (0, 1]"},
	{"trailing garbage", `{"requests":[{"dataset":"Walmart"}]} trailing`, "parse request"},
	{"two request objects", `{"requests":[{"dataset":"Walmart"}]}{"requests":[{"dataset":"Walmart"}]}`, "parse request"},
}

func TestDecideMalformed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range malformedBodies {
		resp, data := postRaw(t, ts, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body: %s)", tc.name, resp.StatusCode, data)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: error body is not ErrorResponse: %v", tc.name, err)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
	// Whitespace after the request object is not trailing data.
	resp, data := postRaw(t, ts, []byte("{\"requests\":[{\"dataset\":\"Walmart\"}]} \r\n\t"))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status = %d, want 200 (body: %s)", resp.StatusCode, data)
	}
}

// oracleDecode is the decide-body decoder the server had before its
// hand-written one, kept as the reference FuzzDecodeRequest holds
// decodeRequest to: json.Unmarshal into DecideRequest, then the batch
// validation. unmarshaled reports whether json.Unmarshal accepted the body.
func oracleDecode(s *Server, body []byte) (queries []resolvedQuery, rerr *requestError, unmarshaled bool) {
	var req DecideRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, refuse(http.StatusBadRequest, "parse request: %v", err), false
	}
	if req.V < 0 || req.V > RequestSchemaVersion {
		return nil, refuse(http.StatusBadRequest,
			"request schema v%d not understood (this server speaks up to v%d)", req.V, RequestSchemaVersion), true
	}
	if len(req.Requests) == 0 {
		return nil, refuse(http.StatusBadRequest, "empty batch: requests must carry 1..%d queries", s.cfg.MaxBatch), true
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		return nil, refuse(http.StatusBadRequest, "batch of %d queries exceeds the %d cap", len(req.Requests), s.cfg.MaxBatch), true
	}
	resolved := make([]resolvedQuery, len(req.Requests))
	for i, q := range req.Requests {
		if _, ok := s.catalog[q.Dataset]; !ok {
			return nil, refuse(http.StatusNotFound, "unknown dataset %q (GET /v1/datasets lists the catalog)", q.Dataset), true
		}
		rq := resolvedQuery{dataset: q.Dataset, scale: q.Scale, seed: q.Seed}
		if rq.scale == 0 {
			rq.scale = s.cfg.Scale
		}
		if rq.scale <= 0 || rq.scale > 1 {
			return nil, refuse(http.StatusBadRequest, "scale %v outside (0, 1] for dataset %q", rq.scale, q.Dataset), true
		}
		if rq.seed == 0 {
			rq.seed = s.cfg.Seed
		}
		switch strings.ToUpper(q.Rule) {
		case "":
			rq.adv = s.advTR
			if s.cfg.Rule == core.RORRule {
				rq.adv = s.advROR
			}
		case "TR":
			rq.adv = s.advTR
		case "ROR":
			rq.adv = s.advROR
		default:
			return nil, refuse(http.StatusBadRequest, "unknown rule %q (want TR or ROR)", q.Rule), true
		}
		resolved[i] = rq
	}
	return resolved, nil, true
}

// nested is a valid body whose unknown key "x" holds n arrays nested in one
// another, so the body nests n+1 deep.
func nested(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"requests":[{"dataset":"Walmart"}]}`
}

// decodeQuirks are bodies on which json.Unmarshal into DecideRequest, and
// so decodeRequest, does what a reader of the schema might not expect,
// each checked against go1.24's encoding/json. Under testConfig a 200
// resolves its last query to want ("dataset scale seed rule"); any other
// status refuses with a message containing want.
var decodeQuirks = []struct {
	name   string
	body   string
	status int
	want   string
}{
	{"case-folded keys", `{"REQUESTS":[{"DataSet":"Walmart","ſeed":7,"RULE":"tr"}]}`, http.StatusOK, "Walmart 0.02 7 TR"},
	{"repeated requests decode over the last", `{"requests":[{"dataset":"Walmart","scale":0.5}],"requests":[{"dataset":"Yelp"}]}`, http.StatusOK, "Yelp 0.5 1 TR"},
	{"empty requests starts afresh", `{"requests":[{"dataset":"Walmart","scale":0.5}],"requests":[],"requests":[{}]}`, http.StatusNotFound, `unknown dataset ""`},
	{"null requests starts afresh", `{"requests":[{"dataset":"Walmart"},{}],"requests":null,"requests":[{"scale":0.5}]}`, http.StatusNotFound, `unknown dataset ""`},
	{"shorter array keeps later slots", `{"requests":[{"dataset":"Walmart"},{"dataset":"Yelp","seed":9}],"requests":[{}],"requests":[{},{"rule":"ror"}]}`, http.StatusOK, "Yelp 0.02 9 ROR"},
	{"null leaves a field unchanged", `{"requests":[null,{"dataset":null}]}`, http.StatusNotFound, `unknown dataset ""`},
	{"null top level", `null`, http.StatusBadRequest, "empty batch"},
	{"negative zero seed", `{"requests":[{"dataset":"Walmart","seed":-0}]}`, http.StatusBadRequest, "parse request"},
	{"negative zero v", `{"v":-0,"requests":[{"dataset":"Walmart","scale":-0}]}`, http.StatusOK, "Walmart 0.02 1 TR"},
	{"fractional v", `{"v":1.0,"requests":[{"dataset":"Walmart"}]}`, http.StatusBadRequest, "parse request"},
	{"scale out of range", `{"requests":[{"dataset":"Walmart","scale":1e400}]}`, http.StatusBadRequest, "parse request"},
	{"string seed", `{"requests":[{"dataset":"Walmart","seed":"7"}]}`, http.StatusBadRequest, "parse request"},
	{"escaped dataset", `{"requests":[{"dataset":"\u0057almart","rule":"\u0072or"}]}`, http.StatusOK, "Walmart 0.02 1 ROR"},
	{"invalid UTF-8 dataset", "{\"requests\":[{\"dataset\":\"Wal\xffmart\"}]}", http.StatusNotFound, `unknown dataset "Wal�mart"`},
	{"unknown keys with nested values", `{"x":{"a":[1,{"b":[]},"c",true,null],"d":{}},"requests":[{"y":[[{"z":-1.5e3}]],"dataset":"Walmart"}]}`, http.StatusOK, "Walmart 0.02 1 TR"},
	{"10,000 nested containers", nested(maxDepth - 1), http.StatusOK, "Walmart 0.02 1 TR"},
	{"10,001 nested containers", nested(maxDepth), http.StatusBadRequest, "parse request"},
}

// TestDecodeRequestQuirks: decodeRequest and its oracle both answer every
// quirk as go1.24's encoding/json does.
func TestDecodeRequestQuirks(t *testing.T) {
	s := New(testConfig())
	for _, tc := range decodeQuirks {
		got, rerr := s.decodeRequest([]byte(tc.body))
		want, wantErr, _ := oracleDecode(s, []byte(tc.body))
		for _, side := range []struct {
			name string
			qs   []resolvedQuery
			rerr *requestError
		}{{"decodeRequest", got, rerr}, {"oracle", want, wantErr}} {
			switch {
			case side.rerr != nil && (side.rerr.status != tc.status || !strings.Contains(side.rerr.msg, tc.want)):
				t.Errorf("%s: %s refused %d %q, want %d containing %q", tc.name, side.name, side.rerr.status, side.rerr.msg, tc.status, tc.want)
			case side.rerr == nil && tc.status != http.StatusOK:
				t.Errorf("%s: %s accepted, want %d containing %q", tc.name, side.name, tc.status, tc.want)
			case side.rerr == nil:
				q := side.qs[len(side.qs)-1]
				if last := fmt.Sprintf("%s %v %d %s", q.dataset, q.scale, q.seed, q.adv.Rule); last != tc.want {
					t.Errorf("%s: %s resolved the last query to %q, want %q", tc.name, side.name, last, tc.want)
				}
			}
		}
	}
}

// TestDecodeOversizedBatchBounded: a 1 MB body of 349,516 empty queries is
// refused with its full count, while decodeRequest keeps at most MaxBatch
// queries and so allocates well under 1 MB (json.Unmarshal materialized
// every query, 87 MB).
func TestDecodeOversizedBatchBounded(t *testing.T) {
	s := New(Config{})
	const n = 349516
	body := []byte(`{"requests":[` + strings.Repeat(`{},`, n-1) + `{}]}`)
	if int64(len(body)) > s.cfg.MaxBody {
		t.Fatalf("body of %d bytes exceeds MaxBody %d", len(body), s.cfg.MaxBody)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rerr := s.decodeRequest(body)
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf("batch of %d queries exceeds the %d cap", n, DefaultMaxBatch)
	if rerr == nil || rerr.status != http.StatusBadRequest || rerr.msg != want {
		t.Fatalf("refusal = %+v, want 400 %q", rerr, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decodeRequest allocated %d bytes refusing the batch, want under 1 MB", alloc)
	}
}

// TestDecodeRequestAllocs pins "no allocation per query": a 100-query body
// of the serve-batch shape costs at most a 1-query body plus the doublings
// of the slot slice, where json.Unmarshal made 217.
func TestDecodeRequestAllocs(t *testing.T) {
	s := New(testConfig())
	allocs := func(batch int) float64 {
		body := hotBody(t, batch)
		return testing.AllocsPerRun(50, func() {
			if _, rerr := s.decodeRequest(body); rerr != nil {
				t.Fatal(rerr.msg)
			}
		})
	}
	one, hundred := allocs(1), allocs(100)
	if hundred > one+float64(bits.Len(100)) || hundred >= 16 {
		t.Errorf("decodeRequest allocates %v times for 100 queries and %v for 1, want at most %d more and under 16",
			hundred, one, bits.Len(100))
	}
}

// FuzzDecodeRequest holds decodeRequest to oracleDecode: the same status on
// every body and, on every body json.Unmarshal accepts, the same resolved
// queries or the same refusal message. It also checks that decodeRequest
// never panics and that an accepted body resolves to 1..MaxBatch queries,
// each naming a known dataset with a scale in (0, 1], a seed of at least 1
// and the TR or ROR advisor. It decodes only: the registry stays empty,
// since at scale 1 every fuzzed seed would generate a dataset.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range malformedBodies {
		f.Add([]byte(tc.body))
	}
	for _, tc := range decodeQuirks {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"v":1,"requests":[{"dataset":"Walmart","scale":0.5,"seed":7,"rule":"ror"}]}`))
	f.Add([]byte(`{"requests":[{"dataset":"Yelp","rule":"TR"},{"dataset":"Flights","scale":1}]}`))
	s := New(Config{Scale: 0.02, Seed: 1, MaxBatch: 16})
	full := strings.Repeat(`{"dataset":"Walmart"},`, s.cfg.MaxBatch)
	f.Add([]byte(`{"requests":[` + full[:len(full)-1] + `]}`))              // exactly at the cap
	f.Add([]byte(`{"requests":[` + full + `{"dataset":"Walmart"}]}`))       // one past it
	f.Add([]byte(`{"requests":[` + full + `{"seed":-1}],"requests":[{}]}`)) // a type error past it
	f.Fuzz(func(t *testing.T, body []byte) {
		queries, rerr := s.decodeRequest(body)
		if s.Registry().Len() != 0 {
			t.Fatal("decodeRequest touched the registry")
		}
		want, wantErr, unmarshaled := oracleDecode(s, body)
		switch {
		case (rerr == nil) != (wantErr == nil):
			t.Fatalf("decodeRequest: %d queries, refusal %+v; oracle: %d queries, refusal %+v", len(queries), rerr, len(want), wantErr)
		case rerr != nil && rerr.status != wantErr.status:
			t.Fatalf("decodeRequest refused %d %q, oracle %d %q", rerr.status, rerr.msg, wantErr.status, wantErr.msg)
		case rerr != nil && unmarshaled && rerr.msg != wantErr.msg:
			t.Fatalf("decodeRequest refused with %q, oracle with %q", rerr.msg, wantErr.msg)
		}
		if rerr != nil {
			if queries != nil {
				t.Fatalf("refused (%d %q) but returned %d queries", rerr.status, rerr.msg, len(queries))
			}
			if rerr.status != http.StatusBadRequest && rerr.status != http.StatusNotFound {
				t.Fatalf("refused with status %d (%q), want 400 or 404", rerr.status, rerr.msg)
			}
			return
		}
		if len(queries) != len(want) {
			t.Fatalf("decodeRequest resolved %d queries, oracle %d", len(queries), len(want))
		}
		if len(queries) < 1 || len(queries) > s.cfg.MaxBatch {
			t.Fatalf("accepted %d queries, want 1..%d", len(queries), s.cfg.MaxBatch)
		}
		for i, q := range queries {
			if q != want[i] {
				t.Fatalf("query %d: decodeRequest %+v, oracle %+v", i, q, want[i])
			}
			if _, ok := s.catalog[q.dataset]; !ok {
				t.Fatalf("query %d: accepted unknown dataset %q", i, q.dataset)
			}
			if !(q.scale > 0 && q.scale <= 1) {
				t.Fatalf("query %d: accepted scale %v outside (0, 1]", i, q.scale)
			}
			if q.seed < 1 {
				t.Fatalf("query %d: accepted seed %d", i, q.seed)
			}
			if (q.adv != s.advTR || q.adv.Rule != core.TRRule) && (q.adv != s.advROR || q.adv.Rule != core.RORRule) {
				t.Fatalf("query %d: accepted advisor %+v, want the TR or ROR one", i, q.adv)
			}
		}
	})
}

func TestDecideUnknownDataset(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "NoSuchDataset"}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 (body: %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "NoSuchDataset") {
		t.Errorf("error %q does not name the dataset", e.Error)
	}
}

func TestDecideSchemaVersionMismatch(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, data := postDecide(t, ts, DecideRequest{V: RequestSchemaVersion + 1, Requests: []Query{{Dataset: "Walmart"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body: %s)", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "schema") {
		t.Errorf("error %q does not mention the schema", e.Error)
	}
}

func TestDecideMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide status = %d, want 405", resp.StatusCode)
	}
}

func TestDatasetsEnumeratesLoaded(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if want := registry.Names(); fmt.Sprint(out.Available) != fmt.Sprint(want) {
		t.Errorf("available = %v, want %v", out.Available, want)
	}
	if len(out.Loaded) != 1 || out.Loaded[0] != (LoadedDataset{Dataset: "Walmart", Scale: 0.02, Seed: 1}) {
		t.Errorf("loaded = %+v", out.Loaded)
	}
}

func TestHealthAndReadyLifecycle(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before Preload = %d, want 503", code)
	}
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after Preload = %d, want 200", code)
	}
}

// TestMetricsExposesRegistry: after a decide, every metric on the Default
// registry appears on /metrics under hamlet_<PromName> (histograms by their
// _count line), and /debug/vars is not served.
func TestMetricsExposesRegistry(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	status, data := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	lines := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			lines[name] = true
		}
	}
	snap := obs.Default.Snapshot()
	if len(snap) == 0 {
		t.Fatal("the Default registry is empty after a decide")
	}
	for name, v := range snap {
		want := "hamlet_" + obs.PromName(name)
		if _, isHist := v.(obs.HistogramSnapshot); isHist {
			want += "_count"
		}
		if !lines[want] {
			t.Errorf("registry metric %q missing from /metrics as %s", name, want)
		}
	}
	if status, _ := get(t, ts, "/debug/vars"); status != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %d, want 404", status)
	}
}

func TestHistogramsAndStats(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}}})
	postRaw(t, ts, []byte("not json")) // one error
	hists := s.Histograms()
	total, ok := hists[obs.LatencyHist]
	if !ok {
		t.Fatalf("no run-level histogram: %v", hists)
	}
	if total.Count != 2 {
		t.Errorf("run-level count = %d, want 2", total.Count)
	}
	decide, ok := hists[obs.LatencyHist+".decide"]
	if !ok || decide.Count != 2 {
		t.Errorf("decide histogram = %+v (ok=%v), want count 2", decide, ok)
	}
	if _, ok := hists[obs.LatencyHist+".healthz"]; ok {
		t.Error("unserved endpoint leaked an empty histogram into the flush")
	}
	reqs, errs := s.Stats()
	if reqs != 2 || errs != 1 {
		t.Errorf("Stats = (%d, %d), want (2, 1)", reqs, errs)
	}
}

func TestRequestLogEvents(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Events = obs.NewEventLog(&syncWriter{w: &buf})
	_, ts := newTestServer(t, cfg)
	postDecide(t, ts, DecideRequest{Requests: []Query{{Dataset: "Walmart"}, {Dataset: "Walmart"}}})
	out := buf.String()
	if !strings.Contains(out, `"msg":"http_request"`) {
		t.Fatalf("no http_request event:\n%s", out)
	}
	for _, want := range []string{`"path":"/v1/decide"`, `"status":200`, `"queries":2`, `"method":"POST"`} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %s:\n%s", want, out)
		}
	}
}

// syncWriter serializes writes; handler goroutines share the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestGracefulShutdownDrains pins the drain contract under -race: a request
// in flight when Shutdown begins completes with 200, Shutdown waits for it,
// and requests arriving after the listener closed are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	s.decideHook = func() {
		close(entered)
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Fire the in-flight request; it blocks inside the handler.
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/decide", "application/json",
			strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("in-flight request status = %d", resp.StatusCode)
			return
		}
		reqDone <- nil
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// Shutdown must wait for the blocked request.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-reqDone; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
	// The drained server refuses new connections.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("request after shutdown succeeded")
	}
}

// TestShutdownDeadlineExpires: a request that outlives the drain deadline
// surfaces as a Shutdown error, not a hang.
func TestShutdownDeadlineExpires(t *testing.T) {
	s := New(testConfig())
	if err := s.Preload("Walmart"); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	s.decideHook = func() {
		close(entered)
		<-release
	}
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/decide", "application/json",
			strings.NewReader(`{"requests": [{"dataset": "Walmart"}]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite an undrained request")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
