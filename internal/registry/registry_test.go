package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hamlet/internal/core"
)

func TestGetCachesPerKey(t *testing.T) {
	r := New()
	a, err := r.Get("Walmart", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get("Walmart", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Get did not return the cached entry")
	}
	c, err := r.Get("Walmart", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seed returned the same entry")
	}
	if _, err := r.Get("NoSuchDataset", 0.05, 1); err == nil {
		t.Error("unknown dataset did not error")
	}
}

func TestGetConcurrentGeneratesOnce(t *testing.T) {
	r := New()
	const callers = 8
	entries := make([]*Entry, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := r.Get("Yelp", 0.02, 1)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent Gets resolved to different entries")
		}
	}
}

// TestEntryDecideMatchesFreshAdvisor pins the service-path contract: a
// decision answered from cached statistics equals a full Decide that
// rescans the dataset.
func TestEntryDecideMatchesFreshAdvisor(t *testing.T) {
	r := New()
	for _, name := range Names() {
		e, err := r.Get(name, 0.02, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		adv := core.NewAdvisor()
		cached, err := adv.DecideFromStats(e.Stats)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := adv.Decide(e.Dataset)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Errorf("%s: cached decisions diverge from fresh Decide", name)
		}
	}
}

// TestLenAndKeysEnumerateResolvedEntries covers the enumeration surface the
// advisord /v1/datasets endpoint serves: only successful builds count, failed
// Gets are invisible, and Keys is deterministically sorted.
func TestLenAndKeysEnumerateResolvedEntries(t *testing.T) {
	r := New()
	if r.Len() != 0 || len(r.Keys()) != 0 {
		t.Fatalf("fresh registry: Len = %d, Keys = %v, want empty", r.Len(), r.Keys())
	}
	for _, k := range []Key{
		{Name: "Yelp", Scale: 0.02, Seed: 1},
		{Name: "Walmart", Scale: 0.05, Seed: 2},
		{Name: "Walmart", Scale: 0.02, Seed: 1},
		{Name: "Walmart", Scale: 0.02, Seed: 2},
	} {
		if _, err := r.Get(k.Name, k.Scale, k.Seed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Get("NoSuchDataset", 0.02, 1); err == nil {
		t.Fatal("unknown dataset did not error")
	}
	want := []Key{
		{Name: "Walmart", Scale: 0.02, Seed: 1},
		{Name: "Walmart", Scale: 0.02, Seed: 2},
		{Name: "Walmart", Scale: 0.05, Seed: 2},
		{Name: "Yelp", Scale: 0.02, Seed: 1},
	}
	if got := r.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %v, want %v (failed Get must be invisible, order sorted)", got, want)
	}
	if r.Len() != len(want) {
		t.Errorf("Len = %d, want %d", r.Len(), len(want))
	}
}

// TestKeysDoesNotBlockOnInFlightBuild pins the eviction-free contract: an
// enumeration racing a slow generation returns immediately with only the
// resolved entries.
func TestKeysDoesNotBlockOnInFlightBuild(t *testing.T) {
	r := New()
	if _, err := r.Get("Walmart", 0.02, 1); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	// Hand-plant an in-flight slot: its once is held open until release, the
	// way a slow Get holds it during generation.
	slot := &entrySlot{}
	r.mu.Lock()
	r.entries[key{name: "Yelp", scale: 0.02, seed: 1}] = slot
	r.mu.Unlock()
	go slot.once.Do(func() {
		close(started)
		<-release
		slot.entry = &Entry{}
		slot.done.Store(true)
	})
	<-started

	done := make(chan []Key, 1)
	go func() { done <- r.Keys() }()
	select {
	case keys := <-done:
		if len(keys) != 1 || keys[0].Name != "Walmart" {
			t.Errorf("Keys during in-flight build = %v, want only Walmart", keys)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Keys blocked behind an in-flight build")
	}
	close(release)
}

// TestFailedGetsAreNotCached pins the no-failure-caching contract: distinct
// failing keys leave nothing behind, and a failing key is built again on
// the next Get rather than answered from a cached error.
func TestFailedGetsAreNotCached(t *testing.T) {
	r := New()
	for i := 0; i < 1000; i++ {
		if _, err := r.Get(fmt.Sprintf("NoSuchDataset%d", i), 0.02, uint64(i)); err == nil {
			t.Fatalf("Get %d of an unknown dataset did not error", i)
		}
	}
	if n := len(r.entries); n != 0 {
		t.Fatalf("1000 failed Gets left %d slots in the map, want 0", n)
	}
	if _, err := r.Get("Walmart", 0.02, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("NoSuchDataset", 0.02, 1); err == nil {
		t.Fatal("unknown dataset did not error")
	}
	if n := len(r.entries); n != 1 {
		t.Fatalf("entries = %d after one success and one failure, want 1", n)
	}
}

// TestConcurrentFailingGetsAllError runs many concurrent Gets of one failing
// key: every caller, whether it shared a build or started a fresh one after
// the failed slot left the map, must see the error, and none may leave a
// slot behind.
func TestConcurrentFailingGetsAllError(t *testing.T) {
	r := New()
	const callers = 64
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Get("NoSuchDataset", 0.02, 1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: failing key returned no error", i)
		}
	}
	if n := len(r.entries); n != 0 {
		t.Fatalf("concurrent failed Gets left %d slots in the map, want 0", n)
	}

	// Callers that find a build in flight share its outcome: with a
	// hand-planted slot whose build fails with a sentinel, every Get
	// returns that sentinel, never an error of a build of its own.
	shared := errors.New("planted build failure")
	slot := &entrySlot{}
	r.mu.Lock()
	r.entries[key{name: "NoSuchDataset", scale: 0.02, seed: 1}] = slot
	r.mu.Unlock()
	release, started := make(chan struct{}), make(chan struct{})
	go slot.once.Do(func() {
		close(started)
		<-release
		slot.err = shared
		slot.done.Store(true)
	})
	<-started
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Get("NoSuchDataset", 0.02, 1)
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, shared) {
			t.Fatalf("caller %d: got %v, want the shared in-flight build's error", i, err)
		}
	}
}

// TestEntryAnswerMemo pins the answer cell's contract: a successful build is
// made once per rule and replayed, a failed build is not stored (the next
// call builds again), and concurrent first calls all return the bytes of the
// one build that was stored.
func TestEntryAnswerMemo(t *testing.T) {
	e := &Entry{}
	builds := map[core.Rule]int{}
	answer := func(rule core.Rule) []byte {
		t.Helper()
		b, err := e.Answer(rule, func() ([]byte, error) {
			builds[rule]++
			return []byte(fmt.Sprintf("%v#%d", rule, builds[rule])), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < 3; i++ {
		if got := string(answer(core.TRRule)); got != "TR#1" {
			t.Fatalf("TR call %d = %q, want the first build's TR#1", i, got)
		}
		if got := string(answer(core.RORRule)); got != "ROR#1" {
			t.Fatalf("ROR call %d = %q, want the first build's ROR#1", i, got)
		}
	}
	if builds[core.TRRule] != 1 || builds[core.RORRule] != 1 {
		t.Errorf("builds = %v, want one per rule", builds)
	}

	e = &Entry{}
	failure := errors.New("planted build failure")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := e.Answer(core.TRRule, func() ([]byte, error) { calls++; return nil, failure }); !errors.Is(err, failure) {
			t.Fatalf("failing build %d: err = %v, want the build's error", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("two calls after a failed build built %d times, want 2 (failures are not stored)", calls)
	}
	if got := string(answer(core.TRRule)); got != "TR#2" {
		t.Errorf("after failures Answer = %q, want a fresh build", got)
	}
	if _, err := e.Answer(core.Rule(7), func() ([]byte, error) { return []byte("x"), nil }); err == nil {
		t.Error("Answer for an unknown rule did not error")
	}

	// Concurrent first calls: each builds distinct bytes, all must return
	// the stored build's.
	e = &Entry{}
	const callers = 32
	got := make([][]byte, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := e.Answer(core.RORRule, func() ([]byte, error) { return []byte(fmt.Sprint("build ", i)), nil })
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if string(got[i]) != string(got[0]) {
			t.Fatalf("concurrent first calls returned %q and %q", got[0], got[i])
		}
	}
}
