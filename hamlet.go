// Package hamlet is a from-scratch Go implementation of the join-avoidance
// system from Kumar, Naughton, Patel & Zhu, "To Join or Not to Join?
// Thinking Twice about Joins before Feature Selection" (SIGMOD 2016).
//
// Normalized datasets keep features across an entity table S(SID, Y, X_S,
// FK_1..FK_k) and attribute tables R_i(RID_i, X_Ri). Because a key–foreign-
// key join materializes the functional dependency FK → X_R, the foreign key
// is an information-theoretically lossless representative of all foreign
// features — so many joins can be avoided before feature selection with no
// significant accuracy loss and large speedups. The risk is variance: with
// few training examples per FK value, the FK-as-representative model
// overfits. Hamlet's decision rules predict a priori, from schema-level
// statistics alone, when a join is safe to avoid:
//
//   - the TR rule: avoid when the tuple ratio n_train/n_R ≥ τ (default 20);
//   - the ROR rule: avoid when the worst-case Risk Of Representation ≤ ρ
//     (default 2.5), a bound derived from the VC-dimension generalization
//     bound.
//
// Basic use:
//
//	ds := &hamlet.Dataset{ ... entity + attribute tables ... }
//	report, err := hamlet.Analyze(ds, hamlet.ForwardSelection(), 42)
//	// report.Decisions: which joins were avoided and why
//	// report.JoinAll / report.JoinOpt: test error + runtime of both plans
//
// The package re-exports the full substrate so downstream users can compose
// the pieces directly: the relational layer (Table, Column, Join), the
// dataset layer (Dataset, Plan, Design, holdout splits), the classifiers
// (Naive Bayes, L1/L2 logistic regression, TAN), the feature selection
// methods (forward, backward, MI/IGR filters, embedded), the decision rules
// (ROR, TupleRatio, Advisor), the bias–variance Monte Carlo harness, the
// simulation worlds, and the experiment runners that regenerate every table
// and figure of the paper (see internal/experiments and EXPERIMENTS.md).
package hamlet

import (
	"hamlet/internal/biasvar"
	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
	"hamlet/internal/ml/nb"
	"hamlet/internal/ml/tan"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// Relational substrate.
type (
	// Table is a columnar table of nominal features (see internal/relational).
	Table = relational.Table
	// Column is one nominal feature column with a closed domain.
	Column = relational.Column
	// ForeignKey describes a KFK reference for the generic join operator.
	ForeignKey = relational.ForeignKey
)

// NewTable creates an empty relational table.
func NewTable(name string) *Table { return relational.NewTable(name) }

// Join materializes the KFK equi-join of an entity table with an attribute
// table through the named foreign-key column.
func Join(s *Table, fkName string, r *Table) (*Table, error) {
	return relational.Join(s, fkName, r)
}

// Dataset layer.
type (
	// Dataset is a normalized dataset: entity table plus attribute tables.
	Dataset = dataset.Dataset
	// AttributeTable pairs an attribute table with its referencing FK.
	AttributeTable = dataset.AttributeTable
	// Plan selects which joins to perform and which FKs to keep.
	Plan = dataset.Plan
	// Design is a materialized single-table design matrix.
	Design = dataset.Design
	// Feature is one design-matrix column with provenance.
	Feature = dataset.Feature
	// Split is the paper's 50/25/25 train/validation/test partition.
	Split = dataset.Split
	// SplitGather is one gather of a plan's columns over a split
	// (Dataset.GatherSplit); Designs views any plan whose columns it holds.
	SplitGather = dataset.SplitGather
)

// Decision rules (the paper's contribution).
type (
	// Advisor applies the join-avoidance rules to a dataset.
	Advisor = core.Advisor
	// Decision is the advisor's per-attribute-table verdict.
	Decision = core.Decision
	// Thresholds pairs ρ (ROR rule) and τ (TR rule).
	Thresholds = core.Thresholds
	// ScatterPoint is a (ROR, TR, ΔError) observation for threshold tuning.
	ScatterPoint = core.ScatterPoint
	// Rule selects the TR or ROR rule.
	Rule = core.Rule
)

// Rule and threshold constants re-exported from internal/core.
const (
	// TRRule thresholds the tuple ratio n_train/n_R.
	TRRule = core.TRRule
	// RORRule thresholds the worst-case risk of representation.
	RORRule = core.RORRule
	// DefaultDelta is Theorem 3.2's failure probability δ = 0.1.
	DefaultDelta = core.DefaultDelta
)

// DefaultThresholds are the paper's ρ = 2.5, τ = 20 (error tolerance 0.001);
// RelaxedThresholds are ρ = 4.2, τ = 10 (tolerance 0.01).
var (
	DefaultThresholds = core.DefaultThresholds
	RelaxedThresholds = core.RelaxedThresholds
)

// NewAdvisor returns an advisor with the paper's defaults.
func NewAdvisor() *Advisor { return core.NewAdvisor() }

// ROR returns the worst-case Risk Of Representation of avoiding a join
// (paper §4.2): nTrain training examples, FK domain size dFK, smallest
// foreign-feature domain qRStar, failure probability delta.
func ROR(nTrain, dFK, qRStar int, delta float64) (float64, error) {
	return core.ROR(nTrain, dFK, qRStar, delta)
}

// TupleRatio returns n_train / n_R.
func TupleRatio(nTrain, nR int) (float64, error) { return core.TupleRatio(nTrain, nR) }

// TuneThresholds derives rule thresholds from simulation scatter at a given
// error tolerance, as the paper does from Figure 4.
func TuneThresholds(points []ScatterPoint, tolerance float64) (Thresholds, error) {
	return core.TuneThresholds(points, tolerance)
}

// Machine learning layer.
type (
	// Learner trains models on a feature subset of a design matrix.
	Learner = ml.Learner
	// Model is a trained classifier.
	Model = ml.Model
	// FeatureSelector is a feature selection method.
	FeatureSelector = fs.Method
	// SelectionResult is the outcome of one feature selection run.
	SelectionResult = fs.Result
)

// NaiveBayes returns the Laplace-smoothed Naive Bayes learner.
func NaiveBayes() Learner { return nb.New() }

// LogisticRegressionL1 returns the L1-regularized softmax learner.
func LogisticRegressionL1() Learner { return logreg.New(logreg.L1) }

// LogisticRegressionL2 returns the L2-regularized softmax learner.
func LogisticRegressionL2() Learner { return logreg.New(logreg.L2) }

// TAN returns the tree-augmented Naive Bayes learner (Appendix E).
func TAN() Learner { return tan.New() }

// ForwardSelection returns the sequential greedy forward wrapper.
func ForwardSelection() FeatureSelector { return fs.Forward{} }

// BackwardSelection returns the sequential greedy backward wrapper.
func BackwardSelection() FeatureSelector { return fs.Backward{} }

// MIFilter returns the mutual-information filter with validation-tuned k.
func MIFilter() FeatureSelector { return fs.MIFilter() }

// IGRFilter returns the information-gain-ratio filter.
func IGRFilter() FeatureSelector { return fs.IGRFilter() }

// EmbeddedL1 returns the embedded L1 logistic regression selector.
func EmbeddedL1() FeatureSelector { return fs.Embedded{Penalty: logreg.L1} }

// EmbeddedL2 returns the embedded L2 logistic regression selector.
func EmbeddedL2() FeatureSelector { return fs.Embedded{Penalty: logreg.L2} }

// DefaultSplit draws the paper's 50/25/25 holdout split over n rows.
func DefaultSplit(n int, seed uint64) (*Split, error) {
	return dataset.DefaultSplit(n, stats.NewRNG(seed))
}

// Information theory re-exports used by filters and diagnostics.
var (
	// MutualInformation is the empirical I(A;B) in bits.
	MutualInformation = stats.MutualInformation
	// InformationGainRatio is IGR(F;Y) = I(F;Y)/H(F).
	InformationGainRatio = stats.InformationGainRatio
	// Entropy is the empirical Shannon entropy in bits.
	Entropy = stats.Entropy
)

// Simulation and bias–variance study re-exports.
type (
	// SimConfig describes one simulation setting (paper §4.1).
	SimConfig = synth.SimConfig
	// World is one realization of a simulation setting.
	World = synth.World
	// BiasVarConfig drives a Monte Carlo bias–variance run.
	BiasVarConfig = biasvar.Config
	// Decomp is the Domingos bias–variance decomposition of a model class.
	Decomp = biasvar.Decomp
	// MimicSpec describes one of the seven real-dataset mimics.
	MimicSpec = synth.MimicSpec
)

// Simulation scenario and skew constants.
const (
	// ScenarioOneXr plants the concept in a lone foreign feature.
	ScenarioOneXr = synth.OneXr
	// ScenarioAllXsXr plants the concept in all of X_S and X_R.
	ScenarioAllXsXr = synth.AllXsXr
	// ScenarioXsFkOnly plants the concept in X_S and FK only.
	ScenarioXsFkOnly = synth.XsFkOnly
)

// NewWorld realizes a simulation world.
func NewWorld(cfg SimConfig, seed uint64) (*World, error) { return synth.NewWorld(cfg, seed) }

// BiasVariance runs the Monte Carlo decomposition for a simulation config,
// returning one Decomp per model class (UseAll, NoJoin, NoFK).
func BiasVariance(sim SimConfig, cfg BiasVarConfig) (map[string]Decomp, error) {
	return biasvar.Run(sim, cfg)
}

// Mimics returns the seven dataset mimics of the paper's Figure 6.
func Mimics() []MimicSpec { return synth.Mimics() }

// MimicByName returns one mimic spec by dataset name.
func MimicByName(name string) (MimicSpec, error) { return synth.MimicByName(name) }
