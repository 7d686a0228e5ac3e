package serialize

import (
	"reflect"
	"strings"
	"testing"
)

// TestApplyDeltaDamageAndRestoreLinks: a damaged candidate link leaves the
// derived connection graph, and a restore in a later delta puts it back
// with the length the restore carries. Links are undirected, so either
// endpoint order names the same link.
func TestApplyDeltaDamageAndRestoreLinks(t *testing.T) {
	base := EncodeProblem(fixtureProblem(t), "stateless-greedy")
	orig := EncodeProblem(fixtureProblem(t), "stateless-greedy")

	damaged, err := ApplyDelta(base, DeltaJSON{DamageLinks: []LinkRefJSON{{U: 3, V: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, orig) {
		t.Fatal("ApplyDelta mutated its base spec")
	}
	g, err := DecodeGraph(damaged.Connections)
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 3) {
		t.Fatal("damaged link (0,3) is still in the connection graph")
	}
	if got, want := g.NumEdges(), len(base.Connections.Edges)-1; got != want {
		t.Fatalf("damaged graph has %d edges, want %d", got, want)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 3) {
		t.Fatal("damage removed a link it did not name")
	}

	restored, err := ApplyDelta(damaged, DeltaJSON{RestoreLinks: []EdgeJSON{{U: 0, V: 3, Length: 2.5}}})
	if err != nil {
		t.Fatal(err)
	}
	g, err = DecodeGraph(restored.Connections)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := g.EdgeLength(3, 0); !ok || l != 2.5 {
		t.Fatalf("restored link (0,3): length %v, present %t; want 2.5, true", l, ok)
	}
	if got, want := g.NumEdges(), len(base.Connections.Edges); got != want {
		t.Fatalf("restored graph has %d edges, want %d", got, want)
	}
}

// TestApplyDeltaRejectsStaleLinkChanges: damaging a link the base does not
// have (or damaging one link twice) and restoring a link that is already
// there are errors, not silent no-ops.
func TestApplyDeltaRejectsStaleLinkChanges(t *testing.T) {
	base := EncodeProblem(fixtureProblem(t), "stateless-greedy")
	for _, tc := range []struct {
		name string
		d    DeltaJSON
		want string
	}{
		{"damage absent link", DeltaJSON{DamageLinks: []LinkRefJSON{{U: 2, V: 3}}}, "does not have"},
		{"damage twice", DeltaJSON{DamageLinks: []LinkRefJSON{{U: 0, V: 2}, {U: 2, V: 0}}}, "does not have"},
		{"restore present link", DeltaJSON{RestoreLinks: []EdgeJSON{{U: 1, V: 2, Length: 1}}}, "already exists"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ApplyDelta(base, tc.d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
