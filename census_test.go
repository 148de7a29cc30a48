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
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedAPIAllowlist names, as "<dir>.<Name>", each exported function,
// method or type under internal/ or in middle.go that no non-test file
// names, and why it stays (DESIGN.md, "Capability census").
// TestNoUnusedAPI fails on a stale entry too, so the list only shrinks.
var unusedAPIAllowlist = map[string]string{
	// The standard library calls these through an interface.
	"internal/obs/tsdb.MarshalJSON": "encoding/json marshals the dump through it",
	"internal/robust.MarshalText":   "flag.TextVar and encoding/json call it",
	"internal/robust.UnmarshalText": "flag.TextVar and encoding/json call it",
	"internal/fednet.Unwrap":        "errors.Is and errors.As call it",

	// The plain kernels are the references the fast ones are held to.
	"internal/tensor.Im2Col":       "bits_test.go and kernels_test.go compare the lowering against it",
	"internal/tensor.Im2Col1D":     "kernels_test.go compares the 1-D lowering against it",
	"internal/tensor.Col2Im":       "bits_test.go and kernels_test.go compare the scatter against it",
	"internal/tensor.Col2Im1D":     "kernels_test.go compares the 1-D scatter against it",
	"internal/tensor.MatMul":       "kernels_test.go and conv_batch_test.go compare the blocked kernels against it",
	"internal/tensor.MatMulTransA": "nn contract and conv tests rebuild dW with it",
	"internal/tensor.MatMulTransB": "nn contract tests, conv tests and the golden hash rebuild products with it",
	"internal/tensor.Transpose2D":  "kernels_test.go and bits_test.go build transposed references with it",
	"internal/tensor.Dot":          "tensor_test.go checks the vector kernels against it",
	"internal/simil.Dot":           "alloc_test.go checks the fused DotNorms against it",
	"internal/simil.Delta":         "alloc_test.go checks DeltaInto and the fused Eq. 12 score against it",
	"internal/simil.SelectionScore": "simil tests pin Eq. 12's ordering and zero allocation on it; " +
		"the engines score through SelectionUtilityNorm",

	// Accessors and drivers tests use to observe or steer a capability
	// that a workload, figure, example or gate runs.
	"internal/simil.Added":               "stream_test.go counts the accumulator's folds",
	"internal/hfl.NonFiniteSteps":        "robust_test.go reads the skipped-step count",
	"internal/hfl.ResidentModels":        "store_test.go reads the lazy store's resident count",
	"internal/hfl.GlobalLoss":            "sim_test.go checks Eq. 4's objective falls",
	"internal/hfl.Append":                "history and sim tests assemble histories with it",
	"internal/fednet.KillEdge":           "membership and chaos tests kill an in-process edge",
	"internal/fednet.RestartEdge":        "membership_test.go restarts a killed edge",
	"internal/fednet.ToleratedFaults":    "chaos and migration tests read absorbed failures",
	"internal/fednet.PlanFaults":         "fednet_chaos_test.go checks fault plans are deterministic",
	"internal/fednet.ReadMsgCount":       "FuzzReadMsg and the codec tests read frames with byte counts",
	"internal/checkpoint.LoadState":      "reads what middle.SaveModel writes; FuzzLoadState and the golden tests drive it",
	"internal/checkpoint.LoadLatest":     "state and chaos tests resume from unnamed records",
	"internal/nn.GradVector":             "gradient checks and contract tests read gradients with it",
	"internal/nn.NewMLP":                 "nn and optim tests build their fixture networks with it",
	"internal/tensor.HasAVX2":            "golden tests pick the kernel family's constant",
	"internal/tensor.KernelStatsEnabled": "stats_test.go toggles kernel counting",
	"internal/tensor.ResetKernelStats":   "stats_test.go zeroes kernel counters",
	"internal/tensor.Equal":              "tests compare tensors with a tolerance",
	"internal/tensor.Full":               "tests build constant tensors",
	"internal/data.PartitionIID":         "hfl and data tests use IID shards as a control",
	"internal/data.GenerateTask":         "data_test.go checks train and test share a distribution",
	"internal/data.GenerateImages":       "data tests generate unsplit image sets",
	"internal/data.GenerateSequences":    "data tests generate unsplit sequence sets",
	"internal/obs.ReadTraceJSON":         "fednet, hfl, middlesim and bench tests re-parse exported traces",
	"internal/obs.ValidateTraceEvents":   "fednet, hfl, middlesim and bench tests validate exported traces",
	"internal/obs.Quantile":              "quantile_test.go checks the histogram estimate the tsdb shares",
}

// TestNoUnusedAPI is the census gate: an exported function, a method or
// an exported type declared under internal/ or in middle.go must be named
// by some non-test .go file of the module other than by its own
// declaration (for a type, also other than as its methods' receiver), or
// be allowlisted with a reason. It matches bare names, so any use of the
// same name anywhere counts: the gate misses dead code that shares a name
// with live code, but never flags live code.
func TestNoUnusedAPI(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}       // identifier → occurrences in non-test files
	declared := map[string]int{}   // bare name → declarations of it
	where := map[string][]string{} // "<dir>.<Name>" → declaration positions
	eachSourceFile(t, fset, func(p string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if p != "middle.go" && !strings.HasPrefix(p, "internal/") {
			return
		}
		declare := func(id *ast.Ident) {
			declared[id.Name]++
			key := path.Dir(p) + "." + id.Name
			where[key] = append(where[key], fset.Position(id.Pos()).String())
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					// A method's receiver type is no use of that type.
					declared[receiverType(d.Recv.List[0].Type)]++
				} else if !d.Name.IsExported() {
					continue
				}
				declare(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						declare(ts.Name)
					}
				}
			}
		}
	})
	var unused []string
	for key, pos := range where {
		name := key[strings.LastIndexByte(key, '.')+1:]
		if uses[name] > declared[name] {
			if _, ok := unusedAPIAllowlist[key]; ok {
				t.Errorf("%s is allowlisted but now used: delete its entry", key)
			}
			continue
		}
		if _, ok := unusedAPIAllowlist[key]; !ok {
			unused = append(unused, key+" ("+strings.Join(pos, ", ")+")")
		}
	}
	for key := range unusedAPIAllowlist {
		if where[key] == nil {
			t.Errorf("%s is allowlisted but no longer declared: delete its entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it, or allowlist it with a reason", u)
	}
}

// receiverType returns the type name of a method receiver: T in T, *T,
// T[P] and *T[P, Q].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// eachSourceFile parses every non-test .go file of the module (outside
// dot directories, testdata and results) and hands fn its slash path.
func eachSourceFile(t *testing.T, fset *token.FileSet, fn func(p string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// flagCorpus lists the files whose command lines exercise a flag: the
// process gates, the figure recipes and, besides every examples/ program,
// the two Go smokes scripts/check.sh runs by name under -race.
var flagCorpus = []string{
	"gate_test.go", // the binaries as real processes (go test -tags gate)
	"EXPERIMENTS.md",
	"cmd/middlesim/adversarial_test.go", // TestAdversarialRunSmoke
	"cmd/middlediag/main_test.go",       // TestQuorumBreachLeavesABundleMiddlediagExplains
}

// unexercisedFlagAllowlist names, by flag, each flag of cmd/middled or
// cmd/middlesim that no file of flagCorpus passes, and why it stays.
// TestEveryFlagIsExercised fails on a stale entry too.
var unexercisedFlagAllowlist = map[string]string{
	"adversary-seed": "draws which devices are adversaries; the adversarial smoke runs its default, and " +
		"TestAdversaryRunDeterministic pins runs to the seed",
	"results":    "experiments.CLI observability flag: writes the run summary JSON (README, Observability)",
	"seeds":      "multi-seed Fig. 6; ROADMAP item 8's scorecard is to run it",
	"smooth":     "presentation only: the printed curves' moving-average window",
	"strategies": "narrows a figure run to a strategy subset; the figures run the paper's full set",
	"savemodel":  "the only writer of the model record middle.SaveModel produces and checkpoint.LoadState reads",
}

// TestEveryFlagIsExercised is the census gate for the command lines: each
// flag in a cmd/*/testdata/flags.golden must be passed as -name by some
// file of flagCorpus or by an examples/ program, or be allowlisted with a
// reason.
func TestEveryFlagIsExercised(t *testing.T) {
	files := append([]string(nil), flagCorpus...)
	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range examples {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	var corpus strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(b)
		corpus.WriteByte('\n')
	}
	passed := func(name string) bool {
		return regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).MatchString(corpus.String())
	}
	declared := map[string]bool{}
	for _, cmd := range []string{"middled", "middlesim"} {
		golden, err := os.ReadFile(filepath.Join("cmd", cmd, "testdata", "flags.golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			name, _, _ := strings.Cut(line, "\t")
			if declared[name] {
				continue
			}
			declared[name] = true
			_, allowed := unexercisedFlagAllowlist[name]
			switch {
			case passed(name) && allowed:
				t.Errorf("-%s is allowlisted but now passed: delete its entry", name)
			case !passed(name) && !allowed:
				t.Errorf("%s -%s is passed by no gate, recipe or example: delete it, or allowlist it with a reason", cmd, name)
			}
		}
	}
	for name := range unexercisedFlagAllowlist {
		if !declared[name] {
			t.Errorf("-%s is allowlisted but no longer declared: delete its entry", name)
		}
	}
}

// drawStreams are hfl's stream functions (internal/hfl/draws.go), by
// "<file>:<func>": the only sites that may re-seed or split a generator on
// a round's model path, so that both engines draw a round's cohorts and
// minibatches from one definition.
var drawStreams = []string{
	"internal/hfl/draws.go:BatchStream",
	"internal/hfl/draws.go:selectionStream",
}

// drawAllowlist names, by "<file>:<func>", each other Reseed or
// tensor.Split call site in non-test internal/hfl, internal/fednet and
// internal/core, and why what it draws never reaches a round's cohort or
// its training. TestEveryDrawIsAStream fails on a stale entry too.
var drawAllowlist = map[string]string{
	"internal/hfl/sim.go:New": "trainer-network init: the initial global model (Split(seed, 0), as the " +
		"deployment's) and each worker's network, whose parameters every local round overwrites",
	"internal/fednet/fleet.go:trainers": "trainer-network init: the pool's networks, one of which " +
		"StartCluster reads as the initial global model; every local round overwrites their parameters",
	"internal/fednet/retry.go:retryBackoff": "retry jitter: when a retry is sent, never what it carries",
	"internal/fednet/faults.go:decideFault": "the fault plan: which frames the injector disturbs",
}

// TestEveryDrawIsAStream is the stream census: every call of a method
// named Reseed, and of tensor.Split, in a non-test file of internal/hfl,
// internal/fednet or internal/core lies in one of hfl's stream functions
// or is allowlisted with a reason. A model-path draw defined anywhere else
// would let the simulator and the deployment draw different rounds.
func TestEveryDrawIsAStream(t *testing.T) {
	fset := token.NewFileSet()
	sites := map[string]bool{}
	eachSourceFile(t, fset, func(p string, f *ast.File) {
		switch path.Dir(p) {
		case "internal/hfl", "internal/fednet", "internal/core":
		default:
			return
		}
		for _, decl := range f.Decls {
			name := ""
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name = d.Name.Name
			case *ast.GenDecl:
				name = "package-level declaration"
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				if sel.Sel.Name == "Reseed" || (sel.Sel.Name == "Split" && pkg != nil && pkg.Name == "tensor") {
					key := p + ":" + name
					if !sites[key] && !slices.Contains(drawStreams, key) {
						if _, ok := drawAllowlist[key]; !ok {
							t.Errorf("%s draws outside hfl's stream functions: route it through them, "+
								"or allowlist it with the reason it stays off the model path", fset.Position(call.Pos()))
						}
					}
					sites[key] = true
				}
				return true
			})
		}
	})
	for _, key := range drawStreams {
		if !sites[key] {
			t.Errorf("stream function %s draws nothing: delete it from drawStreams", key)
		}
	}
	for key := range drawAllowlist {
		if !sites[key] {
			t.Errorf("%s is allowlisted but draws nothing: delete its entry", key)
		}
	}
}

// maxFuncLines bounds a non-test function of the module, from its func
// keyword to its closing brace: code is read step by step, so a step that
// outgrows it is named and split.
const maxFuncLines = 120

// TestFunctionsFitTheBound is the length census: every non-test function
// and method outside bench/ spans at most maxFuncLines lines. bench/ is
// left out: its code changes only with the benchmark itself.
func TestFunctionsFitTheBound(t *testing.T) {
	fset := token.NewFileSet()
	eachSourceFile(t, fset, func(p string, f *ast.File) {
		if strings.HasPrefix(p, "bench/") {
			return
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			start, end := fset.Position(d.Pos()), fset.Position(d.End())
			if n := end.Line - start.Line + 1; n > maxFuncLines {
				t.Errorf("%s: %s is %d lines, over the bound of %d: name its steps", start, d.Name.Name, n, maxFuncLines)
			}
		}
	})
}
