package cardest

import (
	"fmt"
	"math"
	"sort"

	"simquery/cardest/plan"
	"simquery/internal/estimator"
)

// This file is the glue between the serving layer and the optimizer-facing
// estimator plane (cardest/plan): every trained estimator — the nine
// Table-2 methods and the Monotone / Robust / cache-served wrappers — is
// introspectable via Describe and reachable through plan.Estimator via
// NewPlan (DESIGN.md §12).

// DefaultAttr is the attribute name single-attribute deployments bind
// their one vector column under; Sim leaves in simquery -pred expressions
// reference it.
const DefaultAttr = "vec"

// ErrTauOutOfRange re-exports the plan sentinel: a requested threshold
// lies outside the estimator's trained range, so answering it would
// silently extrapolate. Reject with this instead (see CheckTau).
var ErrTauOutOfRange = plan.ErrTauOutOfRange

// EstimatorInfo is the serving layer's view of plan.Metadata for one
// estimator: method identity, trained τ range, serving wrappers, and the
// model generation it answers under.
type EstimatorInfo struct {
	// Name is the Table 2 method label (wrappers may suffix it).
	Name string
	// Family is the estimator.Describer family, "unknown" when the method
	// does not report one.
	Family string
	// TauMin and TauMax bound the supported threshold range; +Inf TauMax
	// means any threshold is answered without extrapolating.
	TauMin, TauMax float64
	// Generation is the process-wide model generation (ModelGeneration).
	Generation uint64
	// Wrappers lists serving wrappers outermost first ("robust", "cached",
	// "monotone").
	Wrappers []string
	// BatchNative reports a native batched search path.
	BatchNative bool
	// CacheServed reports that single-query estimates can be answered from
	// a τ-anchor estimate cache.
	CacheServed bool
	// SizeBytes is the model footprint.
	SizeBytes int
}

// Introspector is implemented by estimators that can describe themselves
// to the planner; Describe falls back to interface probing for the rest.
type Introspector interface {
	Info() EstimatorInfo
}

// Describe reports e's EstimatorInfo, probing estimator.Describer for the
// family and trained τ range when e does not implement Introspector
// itself. Unknown methods get an unbounded τ range — Describe never
// invents a constraint the estimator did not declare.
func Describe(e Estimator) EstimatorInfo {
	if in, ok := e.(Introspector); ok {
		return in.Info()
	}
	return describeBase(e)
}

func describeBase(e Estimator) EstimatorInfo { return describeVia(e, e) }

// describeVia describes e, probing `probe` (the underlying model when e is
// a facade over an unexported field) for the Describer surface.
func describeVia(e Estimator, probe any) EstimatorInfo {
	info := EstimatorInfo{
		Name:       e.Name(),
		Family:     "unknown",
		TauMax:     math.Inf(1),
		Generation: ModelGeneration(),
		SizeBytes:  e.SizeBytes(),
	}
	if d, ok := probe.(estimator.Describer); ok {
		info.Family = d.Family()
		info.TauMin, info.TauMax = d.TauRange()
		if info.TauMax <= 0 {
			info.TauMax = math.Inf(1)
		}
	}
	if _, ok := probe.(estimator.BatchSearchEstimator); ok {
		info.BatchNative = true
	}
	return info
}

// Info implements Introspector for the instrumentation facade by
// describing the wrapped estimator.
func (m measured) Info() EstimatorInfo { return describeBase(m.inner) }

// Info implements Introspector. The embedded BasicModel contributes
// Family/TauRange; batching is native (one matrix pass).
func (b basicEstimator) Info() EstimatorInfo {
	info := describeVia(b, b.BasicModel)
	info.BatchNative = true
	return info
}

// Info implements Introspector.
func (g *GlobalLocalEstimator) Info() EstimatorInfo {
	info := describeVia(g, g.gl)
	info.BatchNative = true
	return info
}

// Info implements Introspector: the isotonic envelope caps the useful τ
// range at its grid maximum — beyond it the prefix-max saturates — and
// tags itself as a wrapper.
func (m *MonotoneEstimator) Info() EstimatorInfo {
	info := Describe(m.base)
	info.Name = m.Name()
	info.SizeBytes = m.SizeBytes()
	if gridMax := m.grid[len(m.grid)-1]; gridMax < info.TauMax {
		info.TauMax = gridMax
	}
	info.Wrappers = append([]string{"monotone"}, info.Wrappers...)
	return info
}

// Info implements Introspector: the hardened wrapper preserves the
// primary's identity and adds the "robust" (and, with an estimate cache
// attached, "cached") wrapper tags.
func (r *RobustEstimator) Info() EstimatorInfo {
	info := Describe(r.primary)
	info.SizeBytes = r.SizeBytes()
	wrappers := []string{"robust"}
	if r.cache != nil {
		wrappers = append(wrappers, "cached")
		info.CacheServed = true
	}
	info.Wrappers = append(wrappers, info.Wrappers...)
	return info
}

// CacheServed implements plan.CacheServer: with an estimate cache
// attached, single-query estimates are cache-eligible (the batch path is
// not), so compound evaluation routes this estimator's leaves through
// EstimateSearch one by one.
func (r *RobustEstimator) CacheServed() bool { return r.cache != nil }

// CheckTau rejects a threshold outside e's supported range with
// ErrTauOutOfRange. A nil return means estimating at tau does not
// extrapolate beyond the trained band.
func CheckTau(e Estimator, tau float64) error {
	if math.IsNaN(tau) || tau < 0 {
		return fmt.Errorf("%w: τ=%v must be a non-negative number", ErrTauOutOfRange, tau)
	}
	info := Describe(e)
	if tau < info.TauMin || tau > info.TauMax {
		return fmt.Errorf("%w: τ=%v for %s, supported range [%v, %v]",
			ErrTauOutOfRange, tau, info.Name, info.TauMin, info.TauMax)
	}
	return nil
}

// PlanBinding builds the plan binding for one attribute served by e over
// d, carrying Describe's metadata into the compound algebra.
func PlanBinding(attr string, e Estimator, d *Dataset) plan.Binding {
	info := Describe(e)
	return plan.Binding{
		Attr:        attr,
		Estimator:   e,
		Dim:         d.Dim(),
		TauMin:      info.TauMin,
		TauMax:      info.TauMax,
		N:           float64(d.Size()),
		Family:      info.Family,
		Generation:  info.Generation,
		Wrappers:    info.Wrappers,
		BatchNative: info.BatchNative,
		CacheServed: info.CacheServed,
	}
}

// NewPlan lifts attribute-bound estimators into the optimizer-facing
// plan.Estimator: compound predicates over the bound attributes are
// answered with the containment / inclusion–exclusion composition, leaves
// batched per attribute (or sent through the cache-eligible single-query
// path for cache-served estimators). Attributes are bound in sorted-name
// order for deterministic Describe output.
func NewPlan(d *Dataset, attrs map[string]Estimator) (*plan.Compound, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("cardest: NewPlan needs at least one attribute binding")
	}
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	bindings := make([]plan.Binding, 0, len(names))
	for _, name := range names {
		e := attrs[name]
		if e == nil {
			return nil, fmt.Errorf("cardest: attribute %q has a nil estimator", name)
		}
		bindings = append(bindings, PlanBinding(name, e, d))
	}
	return plan.NewCompound(bindings...)
}

// PlanFor binds a single estimator under DefaultAttr — the one-liner for
// single-attribute deployments (everything simquery serves).
func PlanFor(d *Dataset, e Estimator) (*plan.Compound, error) {
	return NewPlan(d, map[string]Estimator{DefaultAttr: e})
}
