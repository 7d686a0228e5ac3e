package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/serialize"
)

// shutdown drains a manager created without newTestManager (the restart
// tests need to stop the first instance mid-test).
func shutdown(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// submitAndFinish submits a request and waits for its terminal status.
func submitAndFinish(t testing.TB, m *Manager, req Request) Status {
	t.Helper()
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("job %s finished %s: %s", st.ID, final.State, final.Error)
	}
	return final
}

// TestEmptyDeltaBitIdenticalToBase is the differential contract: a delta
// request that changes nothing must reproduce the base job's fingerprint,
// be answered from its plan cache entry, and carry a bit-identical result
// — whether the delta is absent or explicitly empty, and whether the base
// is referenced by job ID or by fingerprint.
func TestEmptyDeltaBitIdenticalToBase(t *testing.T) {
	m := newTestManager(t, Options{})

	base := submitAndFinish(t, m, tinyRequest(t))
	baseRes, err := m.Result(base.ID)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"by-job-id-nil-delta", Request{Base: base.ID}},
		{"by-job-id-empty-delta", Request{Base: base.ID, Delta: &serialize.DeltaJSON{}}},
		{"by-fingerprint", Request{Base: base.Fingerprint}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := m.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if st.Fingerprint != base.Fingerprint {
				t.Fatalf("empty delta fingerprint %s, base %s", st.Fingerprint, base.Fingerprint)
			}
			if !st.CacheHit {
				t.Fatal("empty delta was not answered from the plan cache")
			}
			if st.Base != base.Fingerprint {
				t.Fatalf("status.Base = %q, want the base fingerprint", st.Base)
			}
			res, err := m.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			// Bit-identical modulo the job's own ID.
			a, b := *baseRes, *res
			a.JobID, b.JobID = "", ""
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if string(ja) != string(jb) {
				t.Fatalf("empty-delta result differs from base:\nbase: %s\ngot:  %s", ja, jb)
			}
		})
	}
}

// TestDeltaJobWarmStartsAndCertifies covers the tentpole end to end: a
// real spec diff resolves against the base job, warm-starts from its
// cached plan, and the derived job's solution still certifies.
func TestDeltaJobWarmStartsAndCertifies(t *testing.T) {
	m := newTestManager(t, Options{})

	base := submitAndFinish(t, m, tinyRequest(t))

	// Remove one flow: the base plan survives the delta, so the warm seed
	// instant-solves and the job reports what it inherited.
	st := submitAndFinish(t, m, Request{
		Base:  base.ID,
		Delta: &serialize.DeltaJSON{RemoveFlows: []int{2}},
	})
	if st.Fingerprint == base.Fingerprint {
		t.Fatal("a real delta must not share the base fingerprint")
	}
	if st.Base != base.Fingerprint {
		t.Fatalf("status.Base = %q, want %q", st.Base, base.Fingerprint)
	}
	if st.Warm == nil {
		t.Fatal("delta job has no warm-start info")
	}
	if !st.Warm.SeedSolved {
		t.Fatalf("surviving seed did not instant-solve: %+v", st.Warm)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GuaranteeMet || res.Solution == nil {
		t.Fatalf("delta job result: %+v", res)
	}
	if res.Epochs != 0 {
		t.Fatalf("instant-solved delta trained %d epochs", res.Epochs)
	}
}

func TestDeltaBaseNotFound(t *testing.T) {
	m := newTestManager(t, Options{})

	if _, err := m.Submit(Request{Base: "0123456789abcdef"}); !errors.Is(err, ErrBaseNotFound) {
		t.Fatalf("unknown job base: got %v, want ErrBaseNotFound", err)
	}
	if _, err := m.Submit(Request{Base: "0123456789abcdef0123456789abcdef"}); !errors.Is(err, ErrBaseNotFound) {
		t.Fatalf("unknown fingerprint base: got %v, want ErrBaseNotFound", err)
	}
	if _, err := m.Submit(Request{Base: "zzz"}); err == nil || errors.Is(err, ErrBaseNotFound) {
		t.Fatalf("malformed base: got %v, want a validation error", err)
	}

	// An unknown base WITH an inline base problem plans cold instead.
	req := tinyRequest(t)
	req.Base = "0123456789abcdef0123456789abcdef"
	req.Delta = &serialize.DeltaJSON{RemoveFlows: []int{2}}
	st := submitAndFinish(t, m, req)
	if st.Warm != nil {
		t.Fatal("cold fallback still reported warm info")
	}
}

// TestDeleteThenResubmitServesCachedResult is the S1 regression: deleting
// a job record must not evict its plan-cache entry, and after a restart a
// manager whose only surviving record is a cache-hit copy must still
// reseed the cache from it.
func TestDeleteThenResubmitServesCachedResult(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := submitAndFinish(t, m1, tinyRequest(t))

	// A duplicate submission is a cache hit carrying a full result copy.
	dup, err := m1.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit {
		t.Fatal("duplicate submission missed the cache")
	}

	// Delete the ORIGINAL record; the cache entry must survive.
	if err := m1.Delete(base.ID); err != nil {
		t.Fatal(err)
	}
	again, err := m1.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("delete of the original record evicted the plan cache entry")
	}
	shutdown(t, m1)

	// Restart over the same dir. The original record is gone from disk too;
	// only cache-hit copies remain. The cache (and the delta spec registry)
	// must reseed from them.
	m2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	after, err := m2.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit {
		t.Fatal("restart with only cache-hit records lost the plan cache entry")
	}
	// Delta resolution against the reseeded spec registry works too.
	del, err := m2.Submit(Request{Base: base.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if !del.CacheHit || del.Fingerprint != base.Fingerprint {
		t.Fatalf("empty delta against reseeded spec registry: %+v", del)
	}
}

// TestDeltaFingerprintIndependentOfBaseSpec pins the base-resolution rule
// on a delta that carries its base spec inline while leaving Params unset:
// the request is self-contained, so Fingerprint (the fleet's dedup and
// adoption key), a manager holding the base spec (the home replica) and
// one that never saw the base (a fallback replica) all agree on one
// fingerprint instead of the home replica inheriting the base's knobs.
func TestDeltaFingerprintIndependentOfBaseSpec(t *testing.T) {
	// Short job deadlines: only the fingerprints matter here, and the delta
	// runs at the default (large) training budget.
	opt := Options{DefaultTimeout: 10 * time.Millisecond}
	home := newTestManager(t, opt)
	base, err := home.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	delta := Request{Base: base.Fingerprint, Problem: tinyProblemJSON(t)}

	want, err := Fingerprint(delta)
	if err != nil {
		t.Fatal(err)
	}
	if want == base.Fingerprint {
		t.Fatal("the default-Params delta shares the base's fingerprint; the fixture no longer tells the rules apart")
	}
	for name, m := range map[string]*Manager{"with base spec": home, "without base spec": newTestManager(t, opt)} {
		st, err := m.Submit(delta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Fingerprint != want {
			t.Fatalf("manager %s fingerprints the delta %s, Fingerprint says %s", name, st.Fingerprint, want)
		}
	}
}
