package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hamlet/internal/registry"
)

// hotBody is a decide body shaped like the serve-batch workload's: batch
// queries over consecutive pairs of the 7 mimics × 2 rules, each carrying
// dataset, scale, seed and rule, at testConfig's scale and seed so they hit
// a registry preloaded with it.
func hotBody(tb testing.TB, batch int) []byte {
	tb.Helper()
	cfg := testConfig()
	names := registry.Names()
	rules := []string{"TR", "ROR"}
	qs := make([]Query, batch)
	for i := range qs {
		qs[i] = Query{Dataset: names[i/len(rules)%len(names)], Scale: cfg.Scale, Seed: cfg.Seed, Rule: rules[i%len(rules)]}
	}
	body, err := json.Marshal(DecideRequest{V: RequestSchemaVersion, Requests: qs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeSink keeps BenchmarkDecodeRequest's result live.
var decodeSink []resolvedQuery

// BenchmarkDecodeRequest times decodeRequest alone on hotBody: parsing and
// validating a batch, without the transport, the registry or the answer.
func BenchmarkDecodeRequest(b *testing.B) {
	s := New(testConfig())
	for _, batch := range []int{1, 100} {
		body := hotBody(b, batch)
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qs, rerr := s.decodeRequest(body)
				if rerr != nil {
					b.Fatal(rerr.msg)
				}
				decodeSink = qs
			}
		})
	}
}

// BenchmarkDecideHandler times one decide request through Handler().ServeHTTP
// on an httptest.ResponseRecorder, over a registry preloaded with every
// mimic at scale 0.02: the served path (decode, registry, answer, write)
// without the transport. batch=1 and batch=100 send hotBody. One untimed
// request first answers every pair once.
func BenchmarkDecideHandler(b *testing.B) {
	s := New(testConfig())
	if err := s.Preload(registry.Names()...); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, batch := range []int{1, 100} {
		body := hotBody(b, batch)
		serve := func(b *testing.B) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			serve(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b)
			}
		})
	}
}
