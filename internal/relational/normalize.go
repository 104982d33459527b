package relational

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the classical FD machinery the paper's Appendix C
// leans on ("we convert T into a relational schema in BCNF using standard
// techniques that take Q as an input"): attribute-set closure, candidate-key
// discovery, minimal cover, and lossless-join BCNF decomposition. Together
// with Corollary C.1 (fd.go) it lets Hamlet-Go take a single wide table plus
// its FDs — the shape analysts actually receive — and recover the normalized
// entity/attribute-table view the join-avoidance rules operate on.

// attrSet is a set of attribute names with deterministic iteration.
type attrSet map[string]bool

func newAttrSet(names ...string) attrSet {
	s := make(attrSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func (s attrSet) clone() attrSet {
	c := make(attrSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s attrSet) containsAll(names []string) bool {
	for _, n := range names {
		if !s[n] {
			return false
		}
	}
	return true
}

func (s attrSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Closure returns the attribute closure attrs⁺ under the FD set: every
// attribute functionally determined by attrs. The result includes attrs
// itself and is sorted.
func Closure(attrs []string, fds []FD) ([]string, error) {
	for _, fd := range fds {
		if err := fd.Validate(); err != nil {
			return nil, err
		}
	}
	return closureSet(newAttrSet(attrs...), fds).sorted(), nil
}

// closureSet is Closure returning a set, with validation skipped (internal
// callers validate once up front).
func closureSet(attrs attrSet, fds []FD) attrSet {
	closure := attrs.clone()
	for changed := true; changed; {
		changed = false
		for _, fd := range fds {
			if !closure.containsAll(fd.Det) {
				continue
			}
			for _, dep := range fd.Dep {
				if !closure[dep] {
					closure[dep] = true
					changed = true
				}
			}
		}
	}
	return closure
}

// IsSuperkey reports whether attrs functionally determine every attribute
// in all (the relation's full attribute list) under the FD set.
func IsSuperkey(attrs, all []string, fds []FD) (bool, error) {
	cl, err := Closure(attrs, fds)
	if err != nil {
		return false, err
	}
	return newAttrSet(cl...).containsAll(all), nil
}

// CandidateKeys returns all minimal keys of a relation with the given
// attributes under the FD set, each sorted, in deterministic order. The
// search is exponential in the number of attributes that appear on the
// right-hand side of some FD (the standard necessary/possible split keeps
// it small for real schemas); relations with more than 24 such attributes
// are rejected.
func CandidateKeys(all []string, fds []FD) ([][]string, error) {
	for _, fd := range fds {
		if err := fd.Validate(); err != nil {
			return nil, err
		}
		for _, a := range append(append([]string(nil), fd.Det...), fd.Dep...) {
			if !newAttrSet(all...)[a] {
				return nil, fmt.Errorf("relational: FD %s references attribute %q outside the relation", fd, a)
			}
		}
	}
	// Attributes never on any RHS must be in every key.
	onRHS := newAttrSet()
	for _, fd := range fds {
		for _, a := range fd.Dep {
			onRHS[a] = true
		}
	}
	var core, optional []string
	for _, a := range all {
		if onRHS[a] {
			optional = append(optional, a)
		} else {
			core = append(core, a)
		}
	}
	if len(optional) > 24 {
		return nil, fmt.Errorf("relational: candidate-key search over %d optional attributes is infeasible", len(optional))
	}
	// If the core alone is a key, it is the unique candidate key.
	if ok, _ := IsSuperkey(core, all, fds); ok {
		return [][]string{append([]string(nil), core...)}, nil
	}
	// Enumerate supersets of the core by increasing size; keep minimal ones.
	var keys [][]string
	var keySets []attrSet
	for size := 1; size <= len(optional); size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			cand := newAttrSet(core...)
			for _, i := range idx {
				cand[optional[i]] = true
			}
			minimal := true
			for _, k := range keySets {
				if cand.containsAll(k.sorted()) {
					minimal = false
					break
				}
			}
			if minimal {
				if closureSet(cand, fds).containsAll(all) {
					keys = append(keys, cand.sorted())
					keySets = append(keySets, cand)
				}
			}
			// Next combination.
			i := size - 1
			for i >= 0 && idx[i] == len(optional)-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return strings.Join(keys[i], ",") < strings.Join(keys[j], ",")
	})
	return keys, nil
}

// MinimalCover returns a canonical (minimal) cover of the FD set: singleton
// right-hand sides, no extraneous determinant attributes, no redundant
// dependencies. The result is deterministic for a given input order.
func MinimalCover(fds []FD) ([]FD, error) {
	// Split to singleton RHS.
	var work []FD
	for _, fd := range fds {
		if err := fd.Validate(); err != nil {
			return nil, err
		}
		for _, dep := range fd.Dep {
			work = append(work, FD{Det: append([]string(nil), fd.Det...), Dep: []string{dep}})
		}
	}
	// Remove extraneous LHS attributes: A is extraneous in X→Y if
	// (X−A)⁺ under the full set still contains Y.
	for i := range work {
		for changed := true; changed; {
			changed = false
			for _, a := range work[i].Det {
				if len(work[i].Det) == 1 {
					break
				}
				reduced := make([]string, 0, len(work[i].Det)-1)
				for _, b := range work[i].Det {
					if b != a {
						reduced = append(reduced, b)
					}
				}
				cl := closureSet(newAttrSet(reduced...), work)
				if cl[work[i].Dep[0]] {
					work[i].Det = reduced
					changed = true
					break
				}
			}
		}
	}
	// Remove redundant FDs: X→y is redundant if X⁺ under the rest has y.
	var cover []FD
	for i := range work {
		rest := make([]FD, 0, len(work)-1)
		rest = append(rest, cover...)
		rest = append(rest, work[i+1:]...)
		cl := closureSet(newAttrSet(work[i].Det...), rest)
		if !cl[work[i].Dep[0]] {
			cover = append(cover, work[i])
		}
	}
	return cover, nil
}

// Schema is a relation schema: a name and an attribute list.
type Schema struct {
	// Name labels the decomposed relation.
	Name string
	// Attrs are its attributes, sorted.
	Attrs []string
}

// DecomposeBCNF losslessly decomposes a relation with the given attributes
// under the FD set into Boyce–Codd Normal Form, using the standard
// violation-driven algorithm: while some relation R has an FD X→Y with X
// not a superkey of R, split R into (X ∪ Y) and (R − Y). Returned schemas
// are deterministic; names are base_1, base_2, ...
func DecomposeBCNF(base string, all []string, fds []FD) ([]Schema, error) {
	cover, err := MinimalCover(fds)
	if err != nil {
		return nil, err
	}
	type rel struct{ attrs attrSet }
	rels := []rel{{newAttrSet(all...)}}
	for changed := true; changed; {
		changed = false
		for ri := range rels {
			r := rels[ri]
			for _, fd := range cover {
				if !r.attrs.containsAll(fd.Det) || !r.attrs[fd.Dep[0]] {
					continue
				}
				// Project the cover onto R and test superkey-ness there.
				proj := projectFDs(cover, r.attrs)
				cl := closureSet(newAttrSet(fd.Det...), proj)
				if cl.containsAll(r.attrs.sorted()) {
					continue // X is a superkey of R: no violation
				}
				// Violation: split R.
				left := closureSet(newAttrSet(fd.Det...), proj)
				// Restrict the closure to R's attributes.
				xy := newAttrSet()
				for a := range left {
					if r.attrs[a] {
						xy[a] = true
					}
				}
				rest := newAttrSet(fd.Det...)
				for a := range r.attrs {
					if !xy[a] {
						rest[a] = true
					}
				}
				rels[ri] = rel{xy}
				rels = append(rels, rel{rest})
				changed = true
				break
			}
			if changed {
				break
			}
		}
	}
	// Deduplicate relations whose attribute set is contained in another.
	var out []Schema
	for i, r := range rels {
		contained := false
		for j, other := range rels {
			if i == j {
				continue
			}
			if other.attrs.containsAll(r.attrs.sorted()) && (len(other.attrs) > len(r.attrs) || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, Schema{Attrs: r.attrs.sorted()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Attrs, ",") < strings.Join(out[j].Attrs, ",")
	})
	for i := range out {
		out[i].Name = fmt.Sprintf("%s_%d", base, i+1)
	}
	return out, nil
}

// projectFDs projects an FD cover onto an attribute set: it keeps the
// dependencies expressible within attrs. (Exact FD projection is
// exponential in general; projecting a singleton-RHS cover by filtering,
// then re-deriving closures inside the relation, is the standard practical
// approximation and is exact for the KFK-style covers Hamlet-Go meets.)
func projectFDs(cover []FD, attrs attrSet) []FD {
	var out []FD
	for _, fd := range cover {
		if attrs.containsAll(fd.Det) && attrs[fd.Dep[0]] {
			out = append(out, fd)
		}
	}
	return out
}

// LosslessJoin verifies a decomposition against a table instance: it
// projects the table onto each schema (with duplicate elimination) and
// checks that the natural join of the projections reproduces exactly the
// original rows. This is the instance-level check of the decomposition's
// lossless-join property.
func LosslessJoin(t *Table, schemas []Schema) (bool, error) {
	if len(schemas) == 0 {
		return false, fmt.Errorf("relational: empty decomposition")
	}
	for _, sch := range schemas {
		for _, a := range sch.Attrs {
			if !t.HasColumn(a) {
				return false, fmt.Errorf("relational: schema %s references missing column %q", sch.Name, a)
			}
		}
	}
	// Represent each projected relation as a set of tuples (map keyed by
	// encoded values). Then join them all via nested accumulation over the
	// original attribute order: we simulate the natural join by iterating
	// the cross product lazily through hash lookups on shared attributes.
	// For test-sized instances a simpler route suffices: enumerate the
	// join result by starting from the first projection and repeatedly
	// hash-joining on shared attributes.
	type tuple map[string]int32
	project := func(sch Schema) []tuple {
		seen := make(map[string]tuple)
		for row := 0; row < t.NumRows(); row++ {
			tp := make(tuple, len(sch.Attrs))
			keyParts := make([]string, len(sch.Attrs))
			for i, a := range sch.Attrs {
				v := t.Column(a).Data[row]
				tp[a] = v
				keyParts[i] = fmt.Sprint(v)
			}
			seen[strings.Join(keyParts, ",")] = tp
		}
		out := make([]tuple, 0, len(seen))
		keys := make([]string, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, seen[k])
		}
		return out
	}
	result := project(schemas[0])
	resultAttrs := newAttrSet(schemas[0].Attrs...)
	for _, sch := range schemas[1:] {
		right := project(sch)
		var shared []string
		for _, a := range sch.Attrs {
			if resultAttrs[a] {
				shared = append(shared, a)
			}
		}
		// Hash the right side on the shared attributes.
		index := make(map[string][]tuple)
		for _, tp := range right {
			parts := make([]string, len(shared))
			for i, a := range shared {
				parts[i] = fmt.Sprint(tp[a])
			}
			k := strings.Join(parts, ",")
			index[k] = append(index[k], tp)
		}
		var joined []tuple
		for _, lt := range result {
			parts := make([]string, len(shared))
			for i, a := range shared {
				parts[i] = fmt.Sprint(lt[a])
			}
			for _, rt := range index[strings.Join(parts, ",")] {
				merged := make(tuple, len(lt)+len(rt))
				for k, v := range lt {
					merged[k] = v
				}
				for k, v := range rt {
					merged[k] = v
				}
				joined = append(joined, merged)
			}
		}
		result = joined
		for _, a := range sch.Attrs {
			resultAttrs[a] = true
		}
	}
	// Compare to the original rows (as a multiset reduced to a set: the
	// original may contain duplicates, which a set comparison absorbs).
	attrs := t.ColumnNames()
	orig := make(map[string]bool)
	for row := 0; row < t.NumRows(); row++ {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = fmt.Sprint(t.Column(a).Data[row])
		}
		orig[strings.Join(parts, ",")] = true
	}
	got := make(map[string]bool)
	for _, tp := range result {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			v, ok := tp[a]
			if !ok {
				return false, fmt.Errorf("relational: decomposition drops attribute %q", a)
			}
			parts[i] = fmt.Sprint(v)
		}
		got[strings.Join(parts, ",")] = true
	}
	if len(got) != len(orig) {
		return false, nil
	}
	for k := range orig {
		if !got[k] {
			return false, nil
		}
	}
	return true, nil
}
