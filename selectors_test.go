package middle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"middle/internal/obs"
	"middle/internal/obs/slo"
)

// TestEverySelectorNamesASeries: every series selector a reader ships —
// the dashboard's PANELS, middleplot's default chart groups, the default
// SLO rules — must match a series the program registers. A selector that
// matches nothing draws an empty panel or keeps a rule pending forever,
// and nothing else notices.
//
// The registered series are the literal names non-test files pass to
// Counter, Gauge, GaugeFunc, Histogram and Span, with their literal
// labels (a computed label value renders as ""), plus what the registry
// and the tsdb derive: a span's _started_total counter, a histogram's
// _count, _p50 and _p99 scalars, and the governance counter
// obs_dropped_series_total. Selectors are '*' globs over those names; no
// name holds a '/', so path.Match agrees with the tsdb's matcher.
func TestEverySelectorNamesASeries(t *testing.T) {
	series := map[string]bool{obs.DroppedSeriesFamily + `{family=""}`: true}
	labelsAt := map[string]int{"Counter": 1, "Gauge": 1, "Span": 1, "GaugeFunc": 2, "Histogram": 2}
	eachSourceFile(t, token.NewFileSet(), func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			at, ok := labelsAt[fn.Sel.Name]
			name, lit := stringLit(call.Args[0])
			if !ok || !lit || len(call.Args) < at {
				return true
			}
			var labels []string
			for i := at; i+1 < len(call.Args); i += 2 {
				k, _ := stringLit(call.Args[i])
				v, _ := stringLit(call.Args[i+1])
				labels = append(labels, k+"="+strconv.Quote(v))
			}
			braces := ""
			if len(labels) > 0 {
				braces = "{" + strings.Join(labels, ",") + "}"
			}
			series[name+braces] = true
			if fn.Sel.Name == "Span" {
				series[name+"_started_total"+braces] = true
			}
			if fn.Sel.Name == "Span" || fn.Sel.Name == "Histogram" {
				for _, derived := range []string{"_count", "_p50", "_p99"} {
					series[name+derived+braces] = true
				}
			}
			return true
		})
	})

	selectors := map[string][]string{}
	html, _ := stringLit(declValue(t, "internal/obs/tsdb/dashboard.go", "dashboardHTML"))
	panels := html[strings.Index(html, "var PANELS = ["):strings.Index(html, "];")]
	for _, list := range regexp.MustCompile(`series: \[([^\]]*)\]`).FindAllStringSubmatch(panels, -1) {
		for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(list[1], -1) {
			sel, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("PANELS selector %s: %v", q, err)
			}
			selectors["dashboard PANELS"] = append(selectors["dashboard PANELS"], sel)
		}
	}
	ast.Inspect(declValue(t, "cmd/middleplot/tsdb.go", "defaultGroups"), func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			if _, patterns := cl.Type.(*ast.ArrayType); patterns {
				for _, e := range cl.Elts {
					if sel, ok := stringLit(e); ok {
						selectors["middleplot defaultGroups"] = append(selectors["middleplot defaultGroups"], sel)
					}
				}
			}
		}
		return true
	})
	for _, r := range slo.DefaultRules() {
		selectors["slo.DefaultRules"] = append(selectors["slo.DefaultRules"], r.Series)
	}
	if len(selectors) != 3 {
		t.Fatalf("found selectors in %d of 3 places: %v", len(selectors), selectors)
	}

	for where, list := range selectors {
	next:
		for _, sel := range list {
			for name := range series {
				if ok, err := path.Match(sel, name); err != nil {
					t.Fatalf("%s selector %q: %v", where, sel, err)
				} else if ok {
					continue next
				}
			}
			t.Errorf("%s selector %q matches no registered series", where, sel)
		}
	}
}

// stringLit returns the value of a string literal node.
func stringLit(n ast.Node) (string, bool) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// declValue returns the initial value of the package-level const or var
// name declared in file.
func declValue(t *testing.T, file, name string) ast.Expr {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				if id.Name == name && i < len(vs.Values) {
					return vs.Values[i]
				}
			}
		}
	}
	t.Fatalf("%s declares no %s", file, name)
	return nil
}
