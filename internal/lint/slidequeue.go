package lint

import (
	"go/ast"
	"go/types"
)

// Slidequeue flags the slide-forward queue: a struct field consumed
// from the front with `x.f = x.f[k:]` and refilled with append
// elsewhere in the package. Reslicing strands the consumed prefix of
// the backing array, so once the tail reaches the array's capacity
// every refill reallocates and copies the live elements; a steadily
// busy queue allocates forever. On the packet path this was the
// simulator's largest allocation site. internal/deque's ring reuses
// its slots instead.
//
// Only fields are checked: a local slice that is sliced forward dies
// with its frame, and a field that is only ever sliced (a cursor over
// fixed data) never refills.
var Slidequeue = &Analyzer{
	Name: "slidequeue",
	Doc:  "flag struct fields used as slide-forward queues (x.f = x.f[k:] plus append); use internal/deque",
	Run:  runSlidequeue,
}

func runSlidequeue(pass *Pass) {
	appended := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) && len(call.Args) > 0 {
				if v := selectedField(pass, call.Args[0]); v != nil {
					appended[v] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			v := selectedField(pass, as.Lhs[0])
			if v == nil || !appended[v] {
				return true
			}
			sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr)
			if !ok || sl.Low == nil || sl.High != nil || selectedField(pass, sl.X) != v {
				return true
			}
			pass.Reportf(as.Pos(),
				"field %s is a slide-forward queue (sliced from the front here, appended to elsewhere): every refill past capacity reallocates; use internal/deque",
				v.Name())
			return true
		})
	}
}

// selectedField returns the struct field e selects, or nil. Fields of
// generic types resolve to their origin, so every instantiation (and
// every method's receiver) shares one identity.
func selectedField(pass *Pass, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v.Origin()
}
