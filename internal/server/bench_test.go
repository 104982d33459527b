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

// BenchmarkDecideHandler times one decide request through Handler().ServeHTTP
// on an httptest.ResponseRecorder, over a registry preloaded with every
// mimic at scale 0.02: the served path (decode, registry, answer, write)
// without the transport. batch=1 asks one (mimic, rule) pair; batch=100
// asks consecutive pairs of the 7 mimics × 2 rules, like the serve-batch
// workload's bodies. One untimed request first answers every pair once.
func BenchmarkDecideHandler(b *testing.B) {
	s := New(testConfig())
	if err := s.Preload(registry.Names()...); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	names := registry.Names()
	rules := []string{"TR", "ROR"}
	for _, batch := range []int{1, 100} {
		qs := make([]Query, batch)
		for i := range qs {
			qs[i] = Query{Dataset: names[i/len(rules)%len(names)], Rule: rules[i%len(rules)]}
		}
		body, err := json.Marshal(DecideRequest{V: RequestSchemaVersion, Requests: qs})
		if err != nil {
			b.Fatal(err)
		}
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
