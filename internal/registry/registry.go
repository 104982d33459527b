// Package registry is the dataset side of the decision service: it resolves
// dataset names to generated mimics and caches, per dataset, the schema-level
// sufficient statistics the advisor's rules consume (target entropy, per-table
// row counts and domain minima — see core.DatasetStats). Generation and the
// statistics scan happen once per (name, scale, seed); after that a decision
// request is pure arithmetic over the cached statistics and never rescans
// data: callers answer it with core.Advisor.DecideFromStats on Entry.Stats.
// Every entry is a generated mimic; Get is the only way in. An entry also
// holds one write-once answer cell per rule (Entry.Answer), so a server
// encodes each (entry, rule) answer once and replays its bytes after that.
// cmd/advisord serves this hot path over HTTP and cmd/loadgen drives it.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/synth"
)

// Entry is one cached dataset: the materialized tables plus the advisor's
// sufficient statistics. Dataset and Stats are immutable after construction;
// the answer cells are written at most once each. Entries are safe to share
// across request workers.
type Entry struct {
	// Dataset is the generated normalized dataset.
	Dataset *dataset.Dataset
	// Stats is the advisor's cached one-scan view of the dataset.
	Stats *core.DatasetStats
	// answers holds, per core.Rule, the first successful Answer build.
	answers [2]atomic.Pointer[[]byte]
}

// Answer returns the bytes cached for rule, calling build to make them on
// first use. Only a successful build is stored: after an error the cell
// stays empty and the next call builds again. Concurrent first calls may
// each build, but the first to store wins and every caller returns its
// bytes, so all callers of one (entry, rule) see identical bytes. Callers
// must not modify the returned slice.
func (e *Entry) Answer(rule core.Rule, build func() ([]byte, error)) ([]byte, error) {
	if rule != core.TRRule && rule != core.RORRule {
		return nil, fmt.Errorf("registry: no answer cell for rule %d", rule)
	}
	cell := &e.answers[rule]
	if b := cell.Load(); b != nil {
		return *b, nil
	}
	b, err := build()
	if err != nil {
		return nil, err
	}
	if !cell.CompareAndSwap(nil, &b) {
		return *cell.Load(), nil
	}
	return b, nil
}

// Key identifies one cached dataset: the (name, scale, seed) tuple Get
// resolves. It is the public face of the registry's internal map key, so
// consumers (the advisord /v1/datasets endpoint, tests) can enumerate what
// is loaded without reaching into internals.
type Key struct {
	// Name is the mimic name ("Walmart", ...).
	Name string
	// Scale is the generation scale in (0, 1].
	Scale float64
	// Seed is the generation seed.
	Seed uint64
}

type key struct {
	name  string
	scale float64
	seed  uint64
}

// Registry caches generated datasets keyed by (name, scale, seed).
// Concurrent Get calls for the same key generate once: the loser of the
// insertion race waits on the winner's result. Only successful builds are
// cached; a failed build is shared by the callers already waiting on it and
// then forgotten, so the next Get of that key retries.
type Registry struct {
	mu      sync.Mutex
	entries map[key]*entrySlot
}

// entrySlot is a once-cell: the first Get generates under the slot's own
// lock (not the registry's), so slow generations of different datasets
// proceed in parallel.
type entrySlot struct {
	once  sync.Once
	entry *Entry
	err   error
	// done flips true after once resolves entry/err; Len and Keys read it
	// (atomically) so enumeration never blocks behind an in-flight build.
	done atomic.Bool
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[key]*entrySlot)}
}

// Names lists the datasets Get can resolve (the Figure 6 mimic names).
func Names() []string {
	specs := synth.Mimics()
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Get returns the cached entry for the named mimic at the given scale and
// seed, generating the dataset and collecting its sufficient statistics on
// first use. A failed build is not cached: its slot leaves the map, so
// failing keys take no room and a transient failure is retried.
func (r *Registry) Get(name string, scale float64, seed uint64) (*Entry, error) {
	k := key{name, scale, seed}
	r.mu.Lock()
	slot, ok := r.entries[k]
	if !ok {
		slot = &entrySlot{}
		r.entries[k] = slot
	}
	r.mu.Unlock()
	slot.once.Do(func() {
		slot.entry, slot.err = build(name, scale, seed)
		if slot.err != nil {
			// Callers holding this slot still share its error; only a
			// slot still in the map goes, never one that replaced it.
			r.mu.Lock()
			if r.entries[k] == slot {
				delete(r.entries, k)
			}
			r.mu.Unlock()
		}
		slot.done.Store(true)
	})
	return slot.entry, slot.err
}

// Len reports how many datasets are resolved in the registry: entries whose
// generation and statistics scan completed successfully. In-flight builds
// and failed Gets do not count. The registry never evicts a resolved
// entry, so Len is monotone over a server's lifetime.
func (r *Registry) Len() int { return len(r.Keys()) }

// Keys enumerates the resolved datasets as (name, scale, seed) keys, sorted
// by name, then scale, then seed. Like Len it skips in-flight and failed
// slots, and never blocks behind a build in progress.
func (r *Registry) Keys() []Key {
	r.mu.Lock()
	keys := make([]Key, 0, len(r.entries))
	for k, slot := range r.entries {
		if slot.done.Load() && slot.err == nil {
			keys = append(keys, Key{Name: k.name, Scale: k.scale, Seed: k.seed})
		}
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		if keys[i].Scale != keys[j].Scale {
			return keys[i].Scale < keys[j].Scale
		}
		return keys[i].Seed < keys[j].Seed
	})
	return keys
}

// build generates the mimic and collects its statistics.
func build(name string, scale float64, seed uint64) (*Entry, error) {
	spec, err := synth.MimicByName(name)
	if err != nil {
		return nil, err
	}
	d, err := spec.Generate(scale, seed)
	if err != nil {
		return nil, fmt.Errorf("registry: generate %s: %w", name, err)
	}
	stats, err := core.CollectStats(d)
	if err != nil {
		return nil, fmt.Errorf("registry: collect stats for %s: %w", name, err)
	}
	return &Entry{Dataset: d, Stats: stats}, nil
}
