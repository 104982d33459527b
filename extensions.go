package hamlet

import (
	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml/nb"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// This file exposes the extension surface: the paper's appendix machinery
// (general FDs and Corollary C.1, the fine-grained skew diagnostic) and its
// explicitly deferred future work (joint multi-table decisions, multi-class
// risk), plus the preprocessing every production deployment needs (numeric
// binning, k-fold cross-validation, cold-start Others records) and the FCBF
// instance-based-redundancy baseline.

// General functional dependencies (Appendix C, Corollary C.1).
type (
	// FD is a functional dependency Det → Dep over table columns.
	FD = relational.FD
	// SkewDiagnostic is the per-FK malign-skew report (Appendix D).
	SkewDiagnostic = core.SkewDiagnostic
	// ClassSkew is the per-class component of a SkewDiagnostic.
	ClassSkew = core.ClassSkew
	// KFold is k-fold cross-validation over a design matrix.
	KFold = dataset.KFold
)

// AcyclicFDs reports whether an FD set is acyclic (Definition C.1).
func AcyclicFDs(fds []FD) (bool, error) { return relational.AcyclicFDs(fds) }

// RedundantFeatures applies Corollary C.1: the dependent-side features of an
// acyclic FD set are redundant and may be dropped a priori.
func RedundantFeatures(fds []FD) ([]string, error) { return relational.RedundantFeatures(fds) }

// Representatives maps each redundant feature to the non-redundant
// determinant features that represent it.
func Representatives(fds []FD) (map[string][]string, error) {
	return relational.Representatives(fds)
}

// HoldsFDSet checks a set of FDs against a table instance.
func HoldsFDSet(t *Table, fds []FD) (bool, error) { return relational.HoldsFDSet(t, fds) }

// KFKAsFDs expresses the dependencies a set of KFK joins materializes as an
// FD list (the bridge from the schema view to Corollary C.1's FD view).
func KFKAsFDs(fks []ForeignKey, attrs map[string]*Table) ([]FD, error) {
	return relational.KFKAsFDs(fks, attrs)
}

// JointROR bounds the combined risk of avoiding several attribute tables at
// once (the §4.2 future-work extension; see also Advisor.JointJoinOptPlan).
func JointROR(nTrain int, dFKs, qRStars []int, delta float64) (float64, error) {
	return core.JointROR(nTrain, dFKs, qRStars, delta)
}

// RORMultiClass generalizes the worst-case ROR to C-class targets via the
// softmax parameter-count surrogate; it reduces to ROR at C = 2.
func RORMultiClass(nTrain, dFK, qRStar, numClasses int, delta float64) (float64, error) {
	return core.RORMultiClass(nTrain, dFK, qRStar, numClasses, delta)
}

// DiagnoseSkew computes the fine-grained Appendix D skew diagnostic of a
// closed-domain FK: per-class H(FK|Y) and effective examples per FK value.
func DiagnoseSkew(d *Dataset, fkName string) (SkewDiagnostic, error) {
	return core.DiagnoseSkew(d, fkName)
}

// FCBFSelector returns the FCBF redundancy-aware filter (Yu & Liu 2004), the
// instance-based counterpart of schema-based join avoidance.
func FCBFSelector() FeatureSelector { return fs.FCBF{} }

// CrossValidatedSelection wraps ForwardSelection or BackwardSelection so
// subset evaluations use k-fold cross-validation instead of the holdout
// protocol (the §2.2 alternative).
func CrossValidatedSelection(inner FeatureSelector, k int, seed uint64) FeatureSelector {
	return fs.CrossValidated{Inner: inner, K: k, Seed: seed}
}

// SymmetricUncertainty is SU(A;B) = 2·I(A;B)/(H(A)+H(B)), FCBF's score.
var SymmetricUncertainty = fs.SymmetricUncertainty

// EqualWidthBins discretizes a numeric series into equal-width bins — the
// paper's preprocessing for numeric features (§2.1 fn. 1, §5).
func EqualWidthBins(name string, values []float64, bins int) (*Column, error) {
	return relational.EqualWidthBins(name, values, bins)
}

// EqualFrequencyBins discretizes a numeric series into equal-count bins.
func EqualFrequencyBins(name string, values []float64, bins int) (*Column, error) {
	return relational.EqualFrequencyBins(name, values, bins)
}

// NewKFold draws a k-fold cross-validation partition of [0, n) — the §2.2
// alternative to holdout validation.
func NewKFold(n, k int, seed uint64) (*KFold, error) {
	return dataset.NewKFold(n, k, stats.NewRNG(seed))
}

// AddOthersRecord prepares an attribute table for cold starts (§2.1): a
// reserved Others record absorbs RIDs unseen at training time.
func AddOthersRecord(d *Dataset, fkName string) error { return dataset.AddOthersRecord(d, fkName) }

// MapUnseenRIDs routes out-of-domain foreign keys to the Others record.
func MapUnseenRIDs(rids []int32, othersRID int32) { dataset.MapUnseenRIDs(rids, othersRID) }

// OthersRID returns the reserved Others RID of a prepared attribute table.
func OthersRID(attr *Table) int32 { return dataset.OthersRID(attr) }

// FitNaiveBayesFactorized trains Naive Bayes over the normalized dataset's
// full JoinAll feature set without materializing any join: sufficient
// statistics factor through the foreign keys (the avoided-materialization
// optimization of the paper's companion work, Kumar et al. SIGMOD 2015).
// The model predicts on designs materialized with JoinAllPlan.
func FitNaiveBayesFactorized(d *Dataset) (Model, error) {
	return nb.New().FitFactorized(d)
}
