// Package statsmerge enforces that effort-counter merges stay
// exhaustive: a func/method whose name starts with merge/Merge/fold/Fold
// and whose receiver or a parameter is a *Stats-named struct must mention
// every exported field of that struct, or list the intentionally
// unmerged ones in a
//
//	//statsmerge:exempt Field1 Field2 -- <reason>
//
// directive on the function. A per-worker counter added to core.Stats
// but forgotten in mergeEffort silently breaks worker-count determinism;
// this check turns that into a lint failure. Exempt names are validated
// against the struct, so a renamed field cannot leave a stale exemption
// behind.
//
// /stats and /metrics exhaustiveness is not linted: internal/serve
// renders both from one counter table, and its stats_table_test.go fills
// every Stats field with a distinct number and checks each one reaches
// both endpoints.
package statsmerge

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"trajmotif/tools/internal/analysis/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "statsmerge",
	Doc:  "Stats merge functions must cover every exported counter field",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMergeFunc(pass, file, fd)
		}
	}
	return nil
}

// statsStruct returns the named *Stats struct a merge function operates
// on: the receiver if it qualifies, else the first qualifying parameter.
func statsStruct(pass *lint.Pass, fd *ast.FuncDecl) *types.Named {
	var cands []*ast.Field
	if fd.Recv != nil {
		cands = append(cands, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		cands = append(cands, fd.Type.Params.List...)
	}
	for _, f := range cands {
		t := pass.Info.Types[f.Type].Type
		if t == nil {
			continue
		}
		n := lint.Named(t)
		if n == nil || !strings.HasSuffix(n.Obj().Name(), "Stats") {
			continue
		}
		if lint.StructOf(n) != nil {
			return n
		}
	}
	return nil
}

func isMergeName(name string) bool {
	for _, p := range []string{"merge", "Merge", "fold", "Fold"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func checkMergeFunc(pass *lint.Pass, file *ast.File, fd *ast.FuncDecl) {
	if !isMergeName(fd.Name.Name) {
		return
	}
	n := statsStruct(pass, fd)
	if n == nil {
		return
	}
	s := lint.StructOf(n)
	fields := lint.ExportedFields(s)
	if len(fields) == 0 {
		return
	}

	exempt := exemptFields(pass, file, fd)
	// Validate exempt names against the struct so renames can't strand a
	// stale exemption.
	known := make(map[string]bool, len(fields))
	for _, f := range fields {
		known[f.Name()] = true
	}
	for name, pos := range exempt {
		if !known[name] {
			pass.Reportf(pos, "//statsmerge:exempt names %s, which is not an exported field of %s.%s",
				name, n.Obj().Pkg().Name(), n.Obj().Name())
		}
	}

	referenced := fieldRefs(pass, fd.Body, fields)
	var missing []string
	for _, f := range fields {
		if _, ok := exempt[f.Name()]; ok {
			continue
		}
		if !referenced[f.Name()] {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(fd.Name.Pos(), "%s does not merge %s.%s field(s) %s: fold them or list them in a //statsmerge:exempt directive",
			fd.Name.Name, n.Obj().Pkg().Name(), n.Obj().Name(), strings.Join(missing, ", "))
	}
}

// exemptFields parses //statsmerge:exempt directives attached to fd (doc
// comment or any comment inside its body) into field name -> position.
// A directive must end with `-- <reason>`; one without a reason is
// reported and ignored.
func exemptFields(pass *lint.Pass, file *ast.File, fd *ast.FuncDecl) map[string]token.Pos {
	const prefix = "//statsmerge:exempt"
	out := make(map[string]token.Pos)
	scan := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			names, reason, found := strings.Cut(rest, "--")
			if !found || strings.TrimSpace(reason) == "" {
				pass.Reportf(c.Pos(), "//statsmerge:exempt directive needs a reason: //statsmerge:exempt Field... -- <why>")
				continue
			}
			for _, name := range strings.Fields(names) {
				out[name] = c.Pos()
			}
		}
	}
	scan(fd.Doc)
	for _, cg := range file.Comments {
		if cg.Pos() >= fd.Pos() && cg.End() <= fd.End() {
			scan(cg)
		}
	}
	return out
}

// fieldRefs reports which of fields are mentioned (selector or composite
// literal key) anywhere under node.
func fieldRefs(pass *lint.Pass, node ast.Node, fields []*types.Var) map[string]bool {
	want := make(map[types.Object]string, len(fields))
	for _, f := range fields {
		want[f] = f.Name()
	}
	out := make(map[string]bool)
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if name, ok := want[pass.Info.Uses[id]]; ok {
			out[name] = true
		}
		return true
	})
	return out
}
