package main

import (
	"fmt"
	"math"
	"time"

	"hamlet/internal/biasvar"
	"hamlet/internal/ml"
	"hamlet/internal/ml/nb"
	"hamlet/internal/obs"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// mcSizes fixes the inputs of the montecarlo workload: one Figure-7-class
// simulation point and the Monte Carlo budget of each biasvar.Run call.
type mcSizes struct {
	sim       synth.SimConfig
	cfg       biasvar.Config
	minCalls  int
	setupReps int
}

var fullMC = mcSizes{
	sim:       synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1},
	cfg:       biasvar.Config{NTrain: 1000, NTest: 500, L: 24, Worlds: 8},
	minCalls:  1,
	setupReps: 9,
}

func mcWorkload(full mcSizes) func(runCfg) (*phase, error) {
	return func(cfg runCfg) (*phase, error) {
		sz := full
		if cfg.toy {
			sz.cfg = biasvar.Config{NTrain: 200, NTest: 100, L: 4, Worlds: 2}
			sz.minCalls, sz.setupReps = 2, 1
		}
		return runMC(cfg, sz)
	}
}

// runMC runs one montecarlo phase. Every call gets the same inputs, so
// every result must equal the first, and the first must equal a Workers=1
// reference computed after timing.
func runMC(cfg runCfg, sz mcSizes) (*phase, error) {
	ph := newPhase()
	bv := sz.cfg
	bv.Seed = drawSeed(inputRNG(cfg.seed))
	bv.Learner = nb.New()

	// Set-up is warm-up calls: the first call in a process pays for page
	// faults and pool start-up that later calls do not.
	var first map[string]biasvar.Decomp
	for rep := 0; rep < sz.setupReps; rep++ {
		t0 := time.Now()
		out, err := biasvar.Run(sz.sim, bv)
		if err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
		if first == nil {
			first = out
		}
	}
	l := ph.newLane(cfg.root)

	u := readUsage()
	start := time.Now()
	for call := 0; call < sz.minCalls || time.Since(start) < cfg.dur; call++ {
		t0 := time.Now()
		var out map[string]biasvar.Decomp
		var err error
		if l == nil {
			out, err = biasvar.Run(sz.sim, bv)
		} else {
			out, err = l.mcTraced(sz, bv, call)
		}
		ph.lat = append(ph.lat, float64(time.Since(t0)))
		ph.attempted++
		if err == nil && !sameDecomps(out, first) {
			err = fmt.Errorf("result %v differs from the first call's %v", out, first)
		}
		if err != nil {
			ph.lat[len(ph.lat)-1] = math.Inf(1)
			ph.failed++
			ph.problem("call %d: %v", call, err)
		}
	}
	ph.wall = time.Since(start)
	ph.usage = u.since()
	var err error
	if ph.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	ph.mergeLanes()

	serial := bv
	serial.Workers = 1
	ref, err := biasvar.Run(sz.sim, serial)
	if err != nil {
		return nil, err
	}
	if !sameDecomps(first, ref) {
		ph.problem("results %v differ from the Workers=1 reference %v", first, ref)
		for i := range ph.lat {
			ph.lat[i] = math.Inf(1)
		}
		ph.failed = ph.attempted
	}
	ph.info["sim"] = fmt.Sprintf("%v dS=%d dR=%d nR=%d p=%v", sz.sim.Scenario, sz.sim.DS, sz.sim.DR, sz.sim.NR, sz.sim.P)
	ph.info["n_train"] = bv.NTrain
	ph.info["n_test"] = bv.NTest
	ph.info["L"] = bv.L
	ph.info["worlds"] = bv.Worlds
	ph.info["workers"] = "GOMAXPROCS"
	ph.info["calls"] = ph.attempted
	return ph, nil
}

// mcTraced is the traced operation: the biasvar.Run call in an "op" span,
// then one of its worlds re-run step by step in a "probe" span — world
// construction, the per-world decomposition, and one training sample, fit
// and prediction.
func (l *lane) mcTraced(sz mcSizes, bv biasvar.Config, call int) (map[string]biasvar.Decomp, error) {
	op := obs.StartSpan("op")
	sp := op.Child("biasvar.run")
	out, err := biasvar.Run(sz.sim, bv)
	l.done(sp)
	l.finish(op)
	if err != nil {
		return nil, err
	}
	probe := obs.StartSpan("probe")
	defer l.finish(probe)
	seed := bv.Seed + uint64(call%bv.Worlds)
	sp = probe.Child("synth.new_world")
	world, err := synth.NewWorld(sz.sim, seed)
	l.done(sp)
	if err != nil {
		return nil, err
	}
	// Inside Run every world gets the workers left over after one per
	// world; at Worlds >= GOMAXPROCS that is one.
	inner := bv
	inner.Workers = 1
	sp = probe.Child("biasvar.run_world")
	_, err = biasvar.RunWorld(world, biasvar.StandardClasses(world), inner, stats.NewRNG(seed))
	l.done(sp)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed + 1)
	test := world.Sample(bv.NTest, rng)
	sp = probe.Child("synth.world_sample")
	train := world.Sample(bv.NTrain, rng)
	l.done(sp)
	sp = probe.Child("nb.fit")
	mod, err := bv.Learner.Fit(train, world.UseAllFeatures())
	l.done(sp)
	if err != nil {
		return nil, err
	}
	sp = probe.Child("ml.predict_all")
	ml.PredictAll(mod, test)
	l.done(sp)
	return out, nil
}

// sameDecomps reports whether two results are identical.
func sameDecomps(a, b map[string]biasvar.Decomp) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}
