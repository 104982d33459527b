package experiments

import (
	"fmt"

	"hamlet/internal/biasvar"
	"hamlet/internal/core"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/synth"
)

// This file holds experiments beyond the paper's figures: ablations for the
// design choices DESIGN.md calls out and the paper's explicitly deferred
// extensions (§4.2 joint decisions, Appendix D's fine-grained skew
// diagnostic, the third simulation scenario the appendix summarizes in
// prose, and the FCBF instance-based-redundancy baseline from the related
// work).

// RunXsFk regenerates the appendix's third simulation scenario (only X_S
// and FK carry the concept; X_R is noise). The paper reports it "did not
// reveal any interesting new insights": NoJoin should match UseAll at every
// n_S since dropping X_R loses nothing, while NoFK gets steadily worse
// because FK is irreplaceable.
func RunXsFk(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	errT, nvT := sweepTables("Scenario XsFkOnly", "n_S")
	for _, nS := range NSSweep {
		sim := synth.SimConfig{Scenario: synth.XsFkOnly, DS: 2, DR: 4, NR: 40, P: 0.1}
		out, err := simPoint(sim, nS, b, b.Seed+130)
		if err != nil {
			return nil, err
		}
		addSweepRow(errT, nvT, d(nS), out)
	}
	return &Result{ID: "xsfk", Tables: []*Table{errT, nvT}}, nil
}

// RunFCBF is the instance-vs-schema redundancy ablation: FCBF (Yu & Liu's
// redundancy-aware filter, cited by the paper as [45]) discovers from the
// data instance the same FK → X_R redundancy that Proposition 3.1 hands the
// decision rules for free from the schema. On datasets whose joins are safe
// to avoid, FCBF over JoinAll should reach JoinOpt-like feature sets — at
// full-instance cost — while FCBF over JoinOpt's already-reduced input pays
// far less.
func RunFCBF(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Ablation: FCBF (instance-based redundancy) vs schema-based JoinOpt",
		Columns: []string{"Dataset", "Metric", "FCBF_JoinAll", "FCBF_JoinOpt", "FeatsAll", "FeatsOpt", "KeptAll", "KeptOpt"}}
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+140+uint64(si))
		if err != nil {
			return nil, err
		}
		optPlan, _, err := p.joinOpt()
		if err != nil {
			return nil, err
		}
		all, err := p.runFS(p.data.JoinAllPlan(), fs.FCBF{})
		if err != nil {
			return nil, err
		}
		opt, err := p.runFS(optPlan, fs.FCBF{})
		if err != nil {
			return nil, err
		}
		t.Add(spec.Name, ml.MetricName(spec.Classes), f(all.TestError), f(opt.TestError),
			d(all.InputFeatures), d(opt.InputFeatures), d(len(all.Selected)), d(len(opt.Selected)))
	}
	return &Result{ID: "fcbf", Tables: []*Table{t}}, nil
}

// RunJoint is the §4.2 future-work ablation: independent versus joint
// avoidance decisions on the dataset mimics. The joint rule bounds the
// *combined* risk of all avoided tables, so it avoids a subset of what the
// independent rule avoids; the table reports both plans and their test
// errors under forward selection.
func RunJoint(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Ablation: independent vs joint avoidance decisions",
		Columns: []string{"Dataset", "AvoidedIndep", "AvoidedJoint", "ErrIndep", "ErrJoint"}}
	for si, spec := range synth.Mimics() {
		p, err := prepare(spec, b, b.Seed+150+uint64(si))
		if err != nil {
			return nil, err
		}
		adv := core.NewAdvisor()
		indepPlan, indepDecs, err := adv.JoinOptPlan(p.data)
		if err != nil {
			return nil, err
		}
		jointPlan, jointDecs, err := adv.JointJoinOptPlan(p.data)
		if err != nil {
			return nil, err
		}
		indep, err := p.runFS(indepPlan, fs.Forward{})
		if err != nil {
			return nil, err
		}
		joint, err := p.runFS(jointPlan, fs.Forward{})
		if err != nil {
			return nil, err
		}
		t.Add(spec.Name, d(countAvoided(indepDecs)), d(countAvoided(jointDecs)),
			f(indep.TestError), f(joint.TestError))
	}
	return &Result{ID: "joint", Tables: []*Table{t}}, nil
}

func countAvoided(decs []core.Decision) int {
	n := 0
	for _, d := range decs {
		if d.Considered && d.Avoid {
			n++
		}
	}
	return n
}

// RunSkewGuard is the Appendix D ablation: the blunt H(Y) guard versus the
// fine-grained per-class effective-TR diagnostic on simulated benign and
// malign FK skews, with the measured NoJoin error increase alongside.
func RunSkewGuard(b Budget) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Ablation: skew guards vs actual NoJoin damage (n_S=500, n_R=40)",
		Columns: []string{"skew", "H(Y)", "bluntGuardTrips", "minEffectiveTR", "fineGuardTrips", "dErr"}}
	cases := []struct {
		label string
		cfg   synth.SimConfig
	}{
		{"none", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1}},
		{"zipf(s=2)", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1, Skew: synth.ZipfSkew, ZipfS: 2}},
		{"needle(0.5)", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1, Skew: synth.NeedleThreadSkew, NeedleP: 0.5}},
		{"needle(0.8)", synth.SimConfig{Scenario: synth.OneXr, DS: 2, DR: 4, NR: 40, P: 0.1, Skew: synth.NeedleThreadSkew, NeedleP: 0.8}},
	}
	const nS = 500
	for _, c := range cases {
		out, err := biasvar.Run(c.cfg, biasvar.Config{
			NTrain: nS, NTest: b.NTest, L: b.L, Worlds: b.Worlds, Seed: b.Seed + 160,
			Workers: b.Workers, Learner: nbLearner(),
		})
		if err != nil {
			return nil, err
		}
		world, err := synth.NewWorld(c.cfg, b.Seed+161)
		if err != nil {
			return nil, err
		}
		ds, err := world.Dataset("skew", nS, rngFor(b.Seed+162))
		if err != nil {
			return nil, err
		}
		sd, err := core.DiagnoseSkew(ds, "FK")
		if err != nil {
			return nil, err
		}
		blunt := sd.HY < core.EntropyGuardBits
		fine := sd.Malign(core.DefaultThresholds.Tau)
		t.Add(c.label, f(sd.HY), fmt.Sprintf("%v", blunt), f(sd.MinEffectiveTR),
			fmt.Sprintf("%v", fine), f(out["NoJoin"].TestError-out["UseAll"].TestError))
	}
	return &Result{ID: "skewguard", Tables: []*Table{t}}, nil
}
