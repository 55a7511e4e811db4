package lint

import (
	"go/ast"
	"go/types"
)

// MetricLabel enforces bounded metric-label cardinality: labels handed to
// the obs registry become map keys that live for the process lifetime, so
// a request-derived label value (query ID, vertex ID, peer address) is an
// unbounded memory leak and an unbounded scrape payload. Label keys must
// be constant strings; label values must not be derived from basic-typed
// parameters of the enclosing function (request data). Struct-typed
// parameters are exempt — their fields are configuration (worker ID,
// stage name), which is a bounded set by construction — as is forwarding
// an inherited `labels ...string` slice verbatim.
var MetricLabel = &Analyzer{
	Name: "metriclabel",
	Doc:  "metric label not drawn from a bounded constant set",
	Run:  runMetricLabel,
}

// registryMethods maps obs.Registry method names to their argument shape:
// fixed is the number of arguments preceding the variadic label list, and
// checked is how many leading fixed arguments are themselves identity
// strings held for the process lifetime (a stage name, an SLO name) and so
// must obey the same bounded-set rule as label values.
var registryMethods = map[string]struct {
	fixed   int
	checked int
}{
	"Counter":     {fixed: 1},
	"Gauge":       {fixed: 1},
	"Histogram":   {fixed: 1},
	"AddCounter":  {fixed: 2},
	"CounterFunc": {fixed: 2},
	"GaugeFunc":   {fixed: 2},
	// Stage(stage, labels...) keys the shared stage.latency_ns family by
	// its first argument; SLO(name, target, objective, window) registers a
	// burn-rate objective under its first argument.
	"Stage": {fixed: 1, checked: 1},
	"SLO":   {fixed: 4, checked: 1},
}

func runMetricLabel(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tainted := taintedLocals(info, fd.Body, requestParams(info, fd.Type))
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					for obj := range requestParams(info, lit.Type) {
						tainted[obj] = true
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fixed, checked, ok := registryCall(info, call)
				if !ok {
					return true
				}
				for i := 0; i < checked && i < len(call.Args); i++ {
					if mentionsAny(info, call.Args[i], tainted) {
						pass.Reportf(call.Args[i].Pos(), "stage/SLO name derived from request data; names key process-lifetime state and must come from a bounded constant set or configuration")
					}
				}
				labels := call.Args[fixed:]
				if call.Ellipsis.IsValid() {
					// labels... forwarding of an inherited label slice; the
					// slice's origin is checked where it was built.
					return true
				}
				if len(labels)%2 != 0 {
					pass.Reportf(call.Pos(), "odd number of label arguments (%d); labels are key/value pairs", len(labels))
					return true
				}
				for i, arg := range labels {
					if i%2 == 0 {
						if tv, ok := info.Types[arg]; !ok || tv.Value == nil {
							pass.Reportf(arg.Pos(), "metric label key must be a constant string, not a computed value")
						}
						continue
					}
					if mentionsAny(info, arg, tainted) {
						pass.Reportf(arg.Pos(), "metric label value derived from request data; label values must come from a bounded constant set or configuration")
					}
				}
				return true
			})
		}
	}
}

// registryCall matches a method call on a named Registry type and returns
// the index where the variadic label arguments start plus how many leading
// fixed arguments are taint-checked identity strings.
func registryCall(info *types.Info, call *ast.CallExpr) (fixed, checked int, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, 0, false
	}
	shape, ok := registryMethods[sel.Sel.Name]
	if !ok || len(call.Args) < shape.fixed {
		return 0, 0, false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return 0, 0, false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return 0, 0, false
	}
	return shape.fixed, shape.checked, true
}

// requestParams returns the basic-typed (string/numeric) parameters of a
// function — the values that vary per request. The receiver is excluded
// (it is the component, not the request), and struct- or slice-typed
// parameters are excluded (configuration objects and inherited label
// slices, whose contents are bounded by construction).
func requestParams(info *types.Info, ftype *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ftype.Params == nil {
		return out
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&(types.IsString|types.IsNumeric) != 0 {
				out[obj] = true
			}
		}
	}
	return out
}
