package middle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"middle/internal/obs/slo"
	"middle/internal/obs/tsdb"
)

// seriesFamily returns the registered family a series name belongs to:
// the name up to its label braces, less a derived suffix.
func seriesFamily(name string, families map[string]bool) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, derived := range []string{"_count", "_p50", "_p99"} {
		if base := strings.TrimSuffix(name, derived); base != name && families[base] {
			return base
		}
	}
	return name
}

// registeredSeries returns every series name the program registers: the
// literal names non-test files pass to Counter, Gauge, GaugeFunc,
// Histogram and Span, with their literal labels (a computed label value
// renders as ""), plus the scalars the tsdb derives from a histogram:
// _count, _p50 and _p99. The second map holds the families themselves.
func registeredSeries(t *testing.T) (series, families map[string]bool) {
	series, families = map[string]bool{}, map[string]bool{}
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
			families[name] = true
			series[name+braces] = true
			if fn.Sel.Name == "Span" || fn.Sel.Name == "Histogram" {
				for _, derived := range []string{"_count", "_p50", "_p99"} {
					series[name+derived+braces] = true
				}
			}
			return true
		})
	})
	return series, families
}

// panelSelectors lists the series selectors of tsdb.Panels and
// slo.DefaultRules, by where they come from.
func panelSelectors() map[string][]string {
	selectors := map[string][]string{}
	for _, p := range tsdb.Panels {
		selectors["tsdb.Panels"] = append(selectors["tsdb.Panels"], p.Series...)
	}
	for _, r := range slo.DefaultRules() {
		selectors["slo.DefaultRules"] = append(selectors["slo.DefaultRules"], r.Series)
	}
	return selectors
}

// TestEverySelectorNamesASeries: every series selector a reader ships —
// the chart panels (the dashboard's and middleplot's) and the default
// SLO rules — must match a series the program registers. A selector that
// matches nothing draws an empty panel or keeps a rule pending forever,
// and nothing else notices. Selectors are '*' globs; no name holds a
// '/', so path.Match agrees with tsdb.Match.
func TestEverySelectorNamesASeries(t *testing.T) {
	series, _ := registeredSeries(t)
	for where, list := range panelSelectors() {
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

// unreadSeriesAllowlist names, by family, each registered series family
// no reader names, and why it stays. TestEverySeriesHasAReader fails on a
// stale entry too.
var unreadSeriesAllowlist = map[string]string{}

// TestEverySeriesHasAReader is the reverse census: every registered
// series family must be read by something — matched by a selector of
// tsdb.Panels or slo.DefaultRules or by one of middlediag's report
// patterns, or named in middlediag, middleplot, bench/, scripts/check.sh
// or a test other than this file — or be allowlisted with a reason. A
// series nobody reads costs a registration, a scrape and a ring of
// points for nothing.
func TestEverySeriesHasAReader(t *testing.T) {
	series, families := registeredSeries(t)
	words := map[string]bool{} // every identifier-like word of the readers' text
	var patterns []*regexp.Regexp
	word := regexp.MustCompile(`[a-z0-9_]+`)
	read := func(file string) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range word.FindAll(raw, -1) {
			words[string(w)] = true
		}
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		p = filepath.ToSlash(p)
		switch {
		case strings.HasPrefix(p, "cmd/middlediag/") && strings.HasSuffix(p, ".go"):
			read(p)
			if !strings.HasSuffix(p, "_test.go") {
				f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 {
						if fn, ok := call.Fun.(*ast.SelectorExpr); ok && fn.Sel.Name == "MustCompile" {
							if re, ok := stringLit(call.Args[0]); ok {
								patterns = append(patterns, regexp.MustCompile(re))
							}
						}
					}
					return true
				})
			}
		case strings.HasPrefix(p, "cmd/middleplot/") && strings.HasSuffix(p, ".go"),
			strings.HasPrefix(p, "bench/") && strings.HasSuffix(p, ".go"),
			p == "scripts/check.sh",
			strings.HasSuffix(p, "_test.go") && p != "selectors_test.go":
			read(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// selected holds each family a panel or rule selector matches.
	selected := map[string]bool{}
	for _, list := range panelSelectors() {
		for _, sel := range list {
			for name := range series {
				if ok, _ := path.Match(sel, name); ok {
					selected[seriesFamily(name, families)] = true
				}
			}
		}
	}

	for family := range families {
		named := selected[family] || words[family] || words[family+"_count"] || words[family+"_p50"] || words[family+"_p99"]
		for _, re := range patterns {
			named = named || re.MatchString(family)
		}
		_, allowed := unreadSeriesAllowlist[family]
		switch {
		case named && allowed:
			t.Errorf("%s is allowlisted but now read: delete its entry", family)
		case !named && !allowed:
			t.Errorf("%s is read by no panel, SLO rule, middlediag, middleplot, bench/, check.sh or test: delete it, or allowlist it with a reason", family)
		}
	}
	for family := range unreadSeriesAllowlist {
		if !families[family] {
			t.Errorf("%s is allowlisted but no longer registered: delete its entry", family)
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
