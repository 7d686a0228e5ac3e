// Package viz renders topologies and planning solutions as Graphviz DOT
// documents: end stations as boxes, switches as circles, components
// colored by ASIL. The output feeds `dot -Tsvg` for design reviews and
// documentation.
package viz

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/graph"
)

// asilColor maps ASIL levels to fill colors (low = cool, high = warm).
func asilColor(l asil.Level) string {
	switch l {
	case asil.LevelA:
		return "#d0e8ff"
	case asil.LevelB:
		return "#b8f0c9"
	case asil.LevelC:
		return "#ffe9a8"
	case asil.LevelD:
		return "#ffc4c4"
	default:
		return "#eeeeee"
	}
}

// nodeID produces a stable DOT identifier.
func nodeID(v graph.Vertex) string {
	return fmt.Sprintf("n%d", v.ID)
}

func nodeLabel(v graph.Vertex) string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("%s%d", v.Kind, v.ID)
}

// WriteSolution renders a planning solution: selected switches and links
// carry their ASIL as color and label; unselected optional switches are
// drawn dashed and grey.
func WriteSolution(w io.Writer, prob *core.Problem, sol *core.Solution, title string) error {
	if sol == nil || sol.Topology == nil {
		return fmt.Errorf("viz: nil solution")
	}
	gc := prob.Connections
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", sanitize(title))
	b.WriteString("  layout=neato;\n  overlap=false;\n  splines=true;\n")
	for i := 0; i < gc.NumVertices(); i++ {
		v := gc.MustVertex(i)
		switch v.Kind {
		case graph.KindEndStation:
			fmt.Fprintf(&b, "  %s [label=%q, shape=box, style=filled, fillcolor=\"#f5f5f5\"];\n",
				nodeID(v), nodeLabel(v))
		case graph.KindSwitch:
			lvl, selected := sol.Assignment.Switches[v.ID]
			if !selected {
				fmt.Fprintf(&b, "  %s [label=%q, shape=circle, style=dashed, color=grey];\n",
					nodeID(v), nodeLabel(v))
				continue
			}
			fmt.Fprintf(&b, "  %s [label=\"%s\\nASIL-%s\", shape=circle, style=filled, fillcolor=%q];\n",
				nodeID(v), nodeLabel(v), lvl, asilColor(lvl))
		}
	}
	for _, e := range sol.Topology.Edges() {
		lvl := sol.Assignment.LinkLevel(e.U, e.V)
		fmt.Fprintf(&b, "  %s -- %s [label=\"%s\", color=%q, penwidth=2];\n",
			nodeID(gc.MustVertex(e.U)), nodeID(gc.MustVertex(e.V)), lvl, strings.TrimSpace(asilColor(lvl)))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sanitize strips characters that break DOT string literals.
func sanitize(s string) string {
	return strings.NewReplacer("\"", "'", "\n", " ").Replace(s)
}
