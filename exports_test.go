package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsOnlyTestsUse names the exported functions under internal/ that no
// program calls but that tests keep as a reference or a probe. Anything
// else exported under internal/ must have a caller outside test files.
var exportsOnlyTestsUse = map[string]string{
	"FailureProbability":    "Eq. 2 scenario probability, the reference the failure property and integration tests compare verdicts against",
	"ReduceToSwitchFailure": "Eq. 6 link-to-switch failure reduction the reduction and integration tests check",
	"ResidualIsSubgraph":    "the residual containment the Eq. 6 proof relies on, asserted by the reduction and integration tests",
	"Batch":                 "rl.Buffer's whole-buffer GAE read-out, through which the buffer and watchdog tests check advantages and returns",
	"BuildGCL":              "802.1Qbv gate control list the integration test builds from every scheduled plan",
	"Fired":                 "fault.Injector's count of injected faults, which the fault and chaos tests assert on",
	"EffectiveConfig":       "a job's defaulted planner config, under which the fleet zoo test pretrains a matching policy",
}

// TestNoExportWithoutProgramCaller parses every non-test Go file in the
// module, perfbench/ and examples/ included, and fails on any package-level
// exported function, or exported method of an exported type, under
// internal/ whose name no other identifier in those files references.
// The match is by name alone, so a name shared with any other identifier
// counts as used; the check finds code nothing can reach, not every such
// function.
func TestNoExportWithoutProgramCaller(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv != nil && !ast.IsExported(receiverType(fn.Recv.List[0].Type)) {
				continue
			}
			decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Name.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] && exportsOnlyTestsUse[d.name] == "" {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or list it in exportsOnlyTestsUse with the reason a test needs it", d)
	}
	for name := range exportsOnlyTestsUse {
		if used[name] {
			t.Errorf("%s now has a program caller: drop it from exportsOnlyTestsUse", name)
		}
	}
}

// receiverType returns the type name of a method receiver, T or *T.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
