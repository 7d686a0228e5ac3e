package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"repro/internal/serialize"
)

// TestFingerprintCanonicalizesSpec pins which spellings of a problem share
// a plan-cache entry. Candidate links are a set (the canonical encoding
// sorts them), and JSON field order and whitespace are syntax, so none of
// them may split the cache. Flow order is identity: it sets the NBF
// scheduling order, so a reordered flow list is a different job.
func TestFingerprintCanonicalizesSpec(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/example-problem.json")
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}

	fingerprint := func(t *testing.T, problem []byte) string {
		t.Helper()
		body := []byte(`{"problem":` + string(problem) + `,"params":{"epochs":2,"steps":48,"k":4,"seed":2}}`)
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req, err := ReadRequest(httptest.NewRecorder(), r)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	// edit decodes the spec, applies fn and re-encodes it.
	edit := func(fn func(*serialize.ProblemJSON)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			var p serialize.ProblemJSON
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			fn(&p)
			out, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}

	cases := []struct {
		name string
		spec func(*testing.T) []byte
		same bool
	}{
		{"reversed connection list", edit(func(p *serialize.ProblemJSON) {
			slices.Reverse(p.Connections.Edges)
		}), true},
		{"reordered JSON fields", func(t *testing.T) []byte {
			// Re-encoding through maps sorts every object's keys, which
			// is not the file's order.
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(out, compact.Bytes()) {
				t.Fatal("re-encoding kept the field order; the case tests nothing")
			}
			return out
		}, true},
		{"reformatted whitespace", func(*testing.T) []byte { return compact.Bytes() }, true},
		{"reversed flow list", edit(func(p *serialize.ProblemJSON) {
			slices.Reverse(p.Flows)
		}), false},
	}
	want := fingerprint(t, raw)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := fingerprint(t, tc.spec(t))
			if (got == want) != tc.same {
				t.Fatalf("fingerprint %s, file's %s: want same=%v", got, want, tc.same)
			}
		})
	}
}
