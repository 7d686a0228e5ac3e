package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// settingsOnlyTestsSet names, as Type.Field, the exported fields of
// Config and Options types under internal/ that no program sets but that
// tests set on purpose. Every other such field must have a program writer.
var settingsOnlyTestsSet = map[string]string{
	"Config.DisableSOAGMasking":       "the SOAG-pruning ablation switch behind EXPERIMENTS' ablation row, set by the ablation benchmark",
	"Config.ExhaustivePathGeneration": "the §IV-B exhaustive path generation behind EXPERIMENTS' ablation row, set by the ablation benchmark",
	"Config.PerFlowEncoding":          "perfbench/train.go reads it for core.NewEncoderWithOptions, so the field and that signature stay until perfbench drops the read",
}

// program is what one parse of every non-test Go file yields.
type program struct {
	// funcs are the exported functions, and exported methods of exported
	// types, declared under internal/.
	funcs []decl
	// fields are the exported fields of exported struct types under
	// internal/ whose names end in Config or Options.
	fields []decl
	// used holds every identifier name referenced other than at its own
	// function declaration.
	used map[string]bool
	// writes maps a field name to the writes of any field of that name.
	writes map[string][]write
}

type decl struct {
	name string // function name, or Type.Field for a field
	dir  string // package directory
	pos  string
}

// write is a composite-literal key or a selector assignment. fill marks
// an assignment that only replaces the zero value of the field it tests
// (if o.F <= 0 { o.F = c }).
type write struct {
	dir  string
	fill bool
}

// scanProgram parses every non-test Go file in the module, perfbench/ and
// examples/ included, once for both guards below.
var scanProgram = sync.OnceValues(func() (*program, error) {
	p := &program{used: map[string]bool{}, writes: map[string][]write{}}
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
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		at := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
		declared := map[*ast.Ident]bool{}
		fills := map[ast.Stmt]bool{}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				declared[dd.Name] = true
				if !internal || !dd.Name.IsExported() {
					continue
				}
				if dd.Recv != nil && !ast.IsExported(receiverType(dd.Recv.List[0].Type)) {
					continue
				}
				p.funcs = append(p.funcs, decl{dd.Name.Name, dir, at(dd.Name)})
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !internal || !ts.Name.IsExported() ||
						!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() {
								p.fields = append(p.fields, decl{ts.Name.Name + "." + n.Name, dir, at(n)})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					p.used[n.Name] = true
				}
			case *ast.IfStmt:
				if sel := zeroTest(n.Cond); sel != "" {
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == sel {
							fills[as] = true
						}
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							p.writes[id.Name] = append(p.writes[id.Name], write{dir: dir})
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						p.writes[sel.Sel.Name] = append(p.writes[sel.Sel.Name], write{dir, fills[n]})
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					p.writes[sel.Sel.Name] = append(p.writes[sel.Sel.Name], write{dir: dir})
				}
			}
			return true
		})
		return nil
	})
	return p, err
})

// zeroTest returns the selector an if condition compares with a zero
// value (x.F == 0, x.F <= 0, x.F < 0, x.F == "", x.F == nil), or "".
func zeroTest(cond ast.Expr) string {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.LEQ && be.Op != token.LSS) {
		return ""
	}
	if _, ok := be.X.(*ast.SelectorExpr); !ok {
		return ""
	}
	switch y := be.Y.(type) {
	case *ast.BasicLit:
		if y.Kind == token.STRING && y.Value == `""` {
			return types.ExprString(be.X)
		}
		if v, err := strconv.ParseFloat(y.Value, 64); err == nil && v == 0 {
			return types.ExprString(be.X)
		}
	case *ast.Ident:
		if y.Name == "nil" {
			return types.ExprString(be.X)
		}
	}
	return ""
}

// TestNoExportWithoutProgramCaller fails on any package-level exported
// function, or exported method of an exported type, under internal/ whose
// name no identifier in a non-test file references. The match is by name
// alone, so a name shared with any other identifier counts as used; the
// check finds code nothing can reach, not every such function.
func TestNoExportWithoutProgramCaller(t *testing.T) {
	p, err := scanProgram()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range p.funcs {
		if !p.used[d.name] && exportsOnlyTestsUse[d.name] == "" {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or list it in exportsOnlyTestsUse with the reason a test needs it", d)
	}
	for name := range exportsOnlyTestsUse {
		if p.used[name] {
			t.Errorf("%s now has a program caller: drop it from exportsOnlyTestsUse", name)
		}
	}
}

// TestNoSettingWithoutProgramWriter fails on any exported field of a
// Config or Options struct type under internal/ that no non-test file
// sets. A composite-literal key or an assignment through a selector sets
// every field of that name; a zero-value default fill in the field's own
// package does not. Like the export guard it matches by name, so it
// cannot see a field whose name some other field shares.
func TestNoSettingWithoutProgramWriter(t *testing.T) {
	p, err := scanProgram()
	if err != nil {
		t.Fatal(err)
	}
	set := func(d decl) bool {
		for _, w := range p.writes[d.name[strings.LastIndexByte(d.name, '.')+1:]] {
			if !w.fill || w.dir != d.dir {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	var unset []string
	for _, d := range p.fields {
		declared[d.name] = true
		_, allowed := settingsOnlyTestsSet[d.name]
		switch {
		case allowed && set(d):
			t.Errorf("%s: %s now has a program writer: drop it from settingsOnlyTestsSet", d.pos, d.name)
		case !allowed && !set(d):
			unset = append(unset, d.pos+": "+d.name)
		}
	}
	sort.Strings(unset)
	for _, d := range unset {
		t.Errorf("%s is set only by tests: delete it, or list it in settingsOnlyTestsSet with the reason a test sets it", d)
	}
	for name := range settingsOnlyTestsSet {
		if !declared[name] {
			t.Errorf("settingsOnlyTestsSet names %s, which is not an exported Config or Options field: drop it", name)
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
