package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
	"hamlet/internal/server"
	"hamlet/internal/synth"
)

// serveSizes fixes the inputs of one serve workload.
type serveSizes struct {
	scale     float64 // generation scale of the preloaded hot keys
	batch     int     // queries per request
	bodies    int     // distinct hot request bodies, sent round-robin
	setupReps int
	// missRate is how many never-seen keys are requested per second of the
	// timed window, at missScale; 0 means none. The count of new keys per
	// run is fixed by the run length, not by throughput, so every commit
	// inserts the same number of registry entries.
	missRate  float64
	missScale float64
}

// toy shrinks the sizes for tests and trace probes.
func (sz serveSizes) toy() serveSizes {
	sz.scale, sz.setupReps = 0.02, 1
	if sz.missRate > 0 {
		sz.missRate = 100
	}
	return sz
}

var (
	rules     = []string{"TR", "ROR"}
	advisorOf = map[string]*core.Advisor{"TR": {Rule: core.TRRule}, "ROR": {Rule: core.RORRule}}
)

func serveWorkload(full serveSizes) func(runCfg) (*phase, error) {
	return func(cfg runCfg) (*phase, error) {
		sz := full
		if cfg.toy {
			sz = sz.toy()
		}
		return runServe(cfg, sz)
	}
}

// serveEnv is a running server and the client that drives it.
type serveEnv struct {
	srv     *server.Server
	url     string
	client  *http.Client
	served  chan error
	queries [][]server.Query
	bodies  [][]byte
	// refs holds the warm probe's answer per body; every later answer to the
	// same body must equal it byte for byte.
	refs [][]byte
}

// startServe builds a server, preloads every mimic at the hot scale and
// seed, listens on loopback and sends one warm probe per body: the work a
// serve workload times as setup.
func startServe(sz serveSizes, seed uint64, clients int) (*serveEnv, error) {
	srv := server.New(server.Config{Scale: sz.scale, Seed: seed})
	if err := srv.Preload(registry.Names()...); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{
		srv: srv,
		url: "http://" + ln.Addr().String() + "/v1/decide",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		}},
		served: make(chan error, 1),
	}
	go func() { e.served <- srv.Serve(ln) }()
	e.queries, e.bodies, err = hotBodies(sz, seed)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, body := range e.bodies {
		resp, err := e.post(body)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm probe: %w", err)
		}
		e.refs = append(e.refs, resp)
	}
	return e, nil
}

// close drains the server and waits for Serve to return.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A drain that misses its deadline still returns; Serve then exits.
	_ = e.srv.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
}

// post sends one decide request and returns the whole response body.
func (e *serveEnv) post(body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// hotBodies builds the hot request bodies. The hot keys are the 7 mimics ×
// 2 rules; body b starts at pair b·14/bodies and takes batch consecutive
// pairs, wrapping.
func hotBodies(sz serveSizes, seed uint64) ([][]server.Query, [][]byte, error) {
	names := registry.Names()
	pairs := len(names) * len(rules)
	var queries [][]server.Query
	var bodies [][]byte
	for b := 0; b < sz.bodies; b++ {
		qs := make([]server.Query, sz.batch)
		for i := range qs {
			p := (b*pairs/sz.bodies + i) % pairs
			qs[i] = server.Query{Dataset: names[p/len(rules)], Scale: sz.scale, Seed: seed, Rule: rules[p%len(rules)]}
		}
		body, err := json.Marshal(server.DecideRequest{V: server.RequestSchemaVersion, Requests: qs})
		if err != nil {
			return nil, nil, err
		}
		queries = append(queries, qs)
		bodies = append(bodies, body)
	}
	return queries, bodies, nil
}

// missSchedule hands out the never-seen keys: miss k falls due at
// (k+½)·every into the timed window and goes to whichever client asks
// first after that.
type missSchedule struct {
	queries [][]server.Query
	bodies  [][]byte
	every   time.Duration
	next    atomic.Int64
}

func newMissSchedule(sz serveSizes, dur time.Duration, seed uint64, rng *rand.Rand) (*missSchedule, error) {
	n := int(sz.missRate * dur.Seconds())
	m := &missSchedule{}
	if n == 0 {
		return m, nil
	}
	m.every = dur / time.Duration(n)
	names := registry.Names()
	used := map[[2]uint64]bool{}
	for k := 0; k < n; k++ {
		ni := k % len(names)
		s := drawSeed(rng)
		for s == seed || used[[2]uint64{uint64(ni), s}] {
			s = drawSeed(rng)
		}
		used[[2]uint64{uint64(ni), s}] = true
		qs := []server.Query{{Dataset: names[ni], Scale: sz.missScale, Seed: s, Rule: rules[(k/len(names))%len(rules)]}}
		body, err := json.Marshal(server.DecideRequest{V: server.RequestSchemaVersion, Requests: qs})
		if err != nil {
			return nil, err
		}
		m.queries = append(m.queries, qs)
		m.bodies = append(m.bodies, body)
	}
	return m, nil
}

// claim returns the index of a miss due at elapsed, or -1.
func (m *missSchedule) claim(elapsed time.Duration) int {
	k := m.next.Load()
	if int(k) >= len(m.bodies) || elapsed < time.Duration(k)*m.every+m.every/2 {
		return -1
	}
	if !m.next.CompareAndSwap(k, k+1) {
		return -1
	}
	return int(k)
}

// serveClient is one closed-loop client: it sends its next request only
// after the previous answer is fully read.
type serveClient struct {
	first   int // body the client starts at; it then goes round-robin
	lat     []float64
	failed  int
	errs    []error
	misses  []missReply
	queries int
	bytes   int
	lane    *lane
}

type missReply struct {
	k, op int
	body  []byte
}

func (c *serveClient) fail(op int, err error) {
	c.lat[op] = math.Inf(1)
	c.failed++
	if len(c.errs) < maxProblems {
		c.errs = append(c.errs, err)
	}
}

// drive runs the closed loop until cfg.dur has passed since start. Operation
// op sends hot body (first+op) mod bodies unless a miss is due.
func (c *serveClient) drive(e *serveEnv, cfg runCfg, m *missSchedule, start time.Time) {
	for op, b := 0, c.first; ; op, b = op+1, (b+1)%len(e.bodies) {
		elapsed := time.Since(start)
		if elapsed >= cfg.dur {
			return
		}
		k := m.claim(elapsed)
		body, qs := e.bodies[b], e.queries[b]
		if k >= 0 {
			body, qs = m.bodies[k], m.queries[k]
		}
		t0 := time.Now()
		var resp []byte
		var err error
		if c.lane == nil {
			resp, err = e.post(body)
		} else {
			resp, err = c.tracedOp(e, body, k >= 0)
		}
		c.lat = append(c.lat, float64(time.Since(t0)))
		c.queries += len(qs)
		if err == nil && cfg.tamper != nil {
			resp = cfg.tamper(resp)
		}
		c.bytes += len(resp)
		switch {
		case err != nil:
			c.fail(op, err)
		case k >= 0:
			c.misses = append(c.misses, missReply{k: k, op: op, body: resp})
		case !bytes.Equal(resp, e.refs[b]):
			c.fail(op, fmt.Errorf("body %d: answer differs from its first answer", b))
		}
	}
}

// tracedOp sends one request inside an "op" span, then re-runs each layer
// of the answer alone inside a "probe" span: the handler on a recorder, the
// request decode, the registry lookup and decision per query, the response
// encode and, for a never-seen key, the generation, statistics scan and
// registry build.
func (c *serveClient) tracedOp(e *serveEnv, body []byte, miss bool) ([]byte, error) {
	l := c.lane
	op := obs.StartSpan("op")
	sp := op.Child("http.roundtrip")
	resp, err := e.post(body)
	rt := l.done(sp)
	l.finish(op)
	if err != nil {
		return nil, err
	}
	probe := obs.StartSpan("probe")
	defer l.finish(probe)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
	sp = probe.Child("server.handler")
	e.srv.Handler().ServeHTTP(rec, req)
	handler := l.done(sp)
	if !bytes.Equal(rec.Body.Bytes(), resp) {
		return nil, fmt.Errorf("handler answer differs from the TCP answer")
	}
	l.add("server.transport", rt-handler)

	var dreq server.DecideRequest
	sp = probe.Child("server.decode")
	err = json.Unmarshal(body, &dreq)
	inner := l.done(sp)
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	for _, q := range dreq.Requests {
		sp = probe.Child("registry.get")
		entry, err := e.srv.Registry().Get(q.Dataset, q.Scale, q.Seed)
		inner += l.done(sp)
		if err != nil {
			return nil, err
		}
		sp = probe.Child("core.decide")
		_, err = advisorOf[q.Rule].DecideFromStats(entry.Stats)
		inner += l.done(sp)
		if err != nil {
			return nil, err
		}
	}
	var dresp server.DecideResponse
	if err := json.Unmarshal(resp, &dresp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	sp = probe.Child("server.encode")
	_, err = json.Marshal(dresp)
	inner += l.done(sp)
	if err != nil {
		return nil, err
	}
	l.add("server.handler_self", handler-inner)

	if miss {
		q := dreq.Requests[0]
		spec, err := synth.MimicByName(q.Dataset)
		if err != nil {
			return nil, err
		}
		sp = probe.Child("synth.generate")
		d, err := spec.Generate(q.Scale, q.Seed)
		l.done(sp)
		if err != nil {
			return nil, err
		}
		sp = probe.Child("core.collect_stats")
		_, err = core.CollectStatsChunked(d, 0)
		l.done(sp)
		if err != nil {
			return nil, err
		}
		sp = probe.Child("registry.get_miss")
		_, err = registry.New().Get(q.Dataset, q.Scale, q.Seed)
		l.done(sp)
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// runServe runs one serve phase: setup, the closed loop, then the checks.
func runServe(cfg runCfg, sz serveSizes) (*phase, error) {
	ph := newPhase()
	clients := min(2, runtime.NumCPU())
	rng := inputRNG(cfg.seed)
	seed := drawSeed(rng)

	var env *serveEnv
	for rep := 0; rep < sz.setupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if env, err = startServe(sz, seed, clients); err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}
	defer env.close()
	misses, err := newMissSchedule(sz, cfg.dur, seed, rng)
	if err != nil {
		return nil, err
	}

	cs := make([]*serveClient, clients)
	for i := range cs {
		cs[i] = &serveClient{first: i * len(env.bodies) / clients, lane: ph.newLane(cfg.root)}
	}
	u := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.drive(env, cfg, misses, start)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.usage = u.since()
	if ph.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	ph.mergeLanes()

	ph.counts["registry.entries"] = float64(env.srv.Registry().Len())
	ph.counts["registry.heap_bytes"] = float64(heapAfterGC())
	ph.counts["registry.misses"] = float64(misses.next.Load())
	for _, c := range cs {
		ph.counts["registry.queries"] += float64(c.queries)
		ph.counts["server.responses"] += float64(len(c.lat))
		ph.counts["server.response_bytes"] += float64(c.bytes)
	}
	checkServe(ph, env, misses, cs)
	for _, c := range cs {
		ph.lat = append(ph.lat, c.lat...)
		ph.attempted += len(c.lat)
		ph.failed += c.failed
		for _, err := range c.errs {
			ph.problem("%v", err)
		}
	}
	ph.info["clients"] = clients
	ph.info["batch"] = sz.batch
	ph.info["bodies"] = sz.bodies
	ph.info["scale"] = sz.scale
	ph.info["requests"] = ph.attempted
	if len(misses.bodies) > 0 {
		ph.info["miss_keys"] = len(misses.bodies)
		ph.info["miss_scale"] = sz.missScale
	}
	return ph, nil
}

// checkServe verifies, after timing, every answer the loop could not check
// byte for byte: each hot body's first answer, and every never-seen key's
// answer, against core.Advisor.Decide on an independently generated copy of
// the same (mimic, scale, seed) under the query's rule. A wrong first answer
// makes every operation that matched it wrong.
func checkServe(ph *phase, e *serveEnv, m *missSchedule, cs []*serveClient) {
	o := oracle{}
	for b, ref := range e.refs {
		err := o.check(ref, e.queries[b])
		if err == nil {
			continue
		}
		ph.problem("body %d: %v", b, err)
		for _, c := range cs {
			missOps := map[int]bool{}
			for _, r := range c.misses {
				missOps[r.op] = true
			}
			for op := range c.lat {
				if !missOps[op] && (c.first+op)%len(e.bodies) == b && !math.IsInf(c.lat[op], 1) {
					c.fail(op, fmt.Errorf("body %d: %w", b, err))
				}
			}
		}
	}
	for _, c := range cs {
		for _, r := range c.misses {
			if err := o.check(r.body, m.queries[r.k]); err != nil {
				c.fail(r.op, fmt.Errorf("miss %d: %w", r.k, err))
			}
		}
	}
}

// oracle answers decide queries from scratch, generating each key once and
// deciding it under both rules.
type oracle map[registry.Key]map[string][]core.Decision

func (o oracle) decide(q server.Query) ([]core.Decision, error) {
	k := registry.Key{Name: q.Dataset, Scale: q.Scale, Seed: q.Seed}
	if byRule, ok := o[k]; ok {
		return byRule[q.Rule], nil
	}
	spec, err := synth.MimicByName(q.Dataset)
	if err != nil {
		return nil, err
	}
	d, err := spec.Generate(q.Scale, q.Seed)
	if err != nil {
		return nil, err
	}
	byRule := map[string][]core.Decision{}
	for rule, adv := range advisorOf {
		if byRule[rule], err = adv.Decide(d); err != nil {
			return nil, err
		}
	}
	o[k] = byRule
	return byRule[q.Rule], nil
}

// check compares one decide answer with the oracle's, field by field.
func (o oracle) check(body []byte, qs []server.Query) error {
	var resp server.DecideResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("parse answer: %w", err)
	}
	if resp.V != server.RequestSchemaVersion || len(resp.Results) != len(qs) {
		return fmt.Errorf("answer v%d with %d results, want v%d with %d", resp.V, len(resp.Results), server.RequestSchemaVersion, len(qs))
	}
	for i, q := range qs {
		r := resp.Results[i]
		if r.Dataset != q.Dataset || r.Scale != q.Scale || r.Seed != q.Seed || r.Rule != q.Rule {
			return fmt.Errorf("result %d answers %s/%v/%d/%s, asked %s/%v/%d/%s",
				i, r.Dataset, r.Scale, r.Seed, r.Rule, q.Dataset, q.Scale, q.Seed, q.Rule)
		}
		want, err := o.decide(q)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.Dataset, err)
		}
		if len(r.Decisions) != len(want) {
			return fmt.Errorf("%s %s: %d decisions, want %d", q.Dataset, q.Rule, len(r.Decisions), len(want))
		}
		for j, d := range want {
			w := server.Decision{FK: d.FK, Attr: d.Attr, Considered: d.Considered, Avoid: d.Avoid,
				Reason: d.Reason, TR: d.TR, ROR: d.ROR, QRStar: d.QRStar, DFK: d.DFK}
			if r.Decisions[j] != w {
				return fmt.Errorf("%s %s decision %d: got %+v, want %+v", q.Dataset, q.Rule, j, r.Decisions[j], w)
			}
		}
	}
	return nil
}
