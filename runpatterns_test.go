package lesslog

// A `go test -run 'TestA|TestB'` step keeps passing when TestB is deleted
// or renamed — it just runs less. This check makes that a failure: every
// Test name a -run pattern in CI or the Makefile spells out must be a
// `func Test…` somewhere in the tree.

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
	"strings"
	"testing"
)

var (
	runFlag  = regexp.MustCompile(`-run[= ]+'([^']*)'`)
	testName = regexp.MustCompile(`Test[A-Za-z0-9_]+`)
	testFunc = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
)

// unresolvedRunNames returns the Test names spelled out in text's -run
// patterns that declared does not contain.
func unresolvedRunNames(text string, declared map[string]bool) []string {
	var missing []string
	for _, m := range runFlag.FindAllStringSubmatch(text, -1) {
		for _, name := range testName.FindAllString(m[1], -1) {
			if !declared[name] {
				missing = append(missing, name)
			}
		}
	}
	return missing
}

// declaredTests collects every top-level Test function under root.
func declaredTests(t *testing.T, root string) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

func TestRunPatternsNameRealTests(t *testing.T) {
	declared := declaredTests(t, ".")
	named := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runFlag.FindAllStringSubmatch(string(src), -1) {
			named += len(testName.FindAllString(m[1], -1))
		}
		for _, name := range unresolvedRunNames(string(src), declared) {
			t.Errorf("%s: -run pattern names %s, which no _test.go file declares", file, name)
		}
	}
	if named == 0 {
		t.Fatal("found no Test names in any -run pattern: the scan itself is broken")
	}

	// The check must bite: a pattern naming a test that does not exist is
	// reported, next to one that does.
	got := unresolvedRunNames(`go test -run 'TestRunPatternsNameRealTests|TestNoSuchTestAnywhere' ./...`, declared)
	if len(got) != 1 || got[0] != "TestNoSuchTestAnywhere" {
		t.Fatalf("unresolved names for a pattern with one missing test = %v", got)
	}
}

// socketCall matches the calls that open or accept a TCP socket directly.
var socketCall = regexp.MustCompile(`net\.(Listen|Dial|DialTimeout)\(`)

// TestFrameSocketsOnlyInTransport: every fabric socket is opened by
// internal/transport — one dial, one Listen — which is the seam a
// deterministic fabric substitutes (ROADMAP "Deterministic fabric"). The two
// admin HTTP listeners are the only sockets outside it.
func TestFrameSocketsOnlyInTransport(t *testing.T) {
	allowed := map[string]bool{
		filepath.Join("internal", "netnode", "admin.go"):   true,
		filepath.Join("internal", "gateway", "observe.go"): true,
	}
	inTransport := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			calls := socketCall.FindAllString(string(src), -1)
			switch {
			case filepath.Dir(path) == filepath.Join("internal", "transport"):
				inTransport += len(calls)
			case len(calls) > 0 && !allowed[path]:
				t.Errorf("%s opens a socket itself (%s): frame sockets belong to internal/transport", path, strings.Join(calls, " "))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if inTransport != 2 {
		t.Errorf("internal/transport has %d socket-opening calls, want 2 (dial and Listen)", inTransport)
	}
}

// A doc that cites `make X` or a file under results/ goes stale when the
// target or the file is deleted, and nothing else notices: the reader
// finds a dead command or a dead link. This check makes that a failure.
var (
	makeCmd     = regexp.MustCompile("`make ([^`\\s]+)[^`\\n]*`")
	makeTarget  = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
	resultsLink = regexp.MustCompile(`\]\(([^)\s#]*results/[^)\s#]*)`)
	resultsPath = regexp.MustCompile("`(results/[^`\\s]*)`")
)

// staleDocRefs returns what doc, the text of the file at docPath, names
// that does not exist: a backquoted `make X` whose X (or glob) matches no
// target in targets, or a link or backquoted path under results/ (a link
// resolved against the doc's directory, a path against the repo root)
// that matches no file.
func staleDocRefs(docPath, doc string, targets []string) []string {
	var stale []string
	for _, m := range makeCmd.FindAllStringSubmatch(doc, -1) {
		if !slices.ContainsFunc(targets, func(t string) bool { ok, _ := path.Match(m[1], t); return ok }) {
			stale = append(stale, "make "+m[1])
		}
	}
	var files []string
	for _, m := range resultsLink.FindAllStringSubmatch(doc, -1) {
		files = append(files, filepath.Join(filepath.Dir(docPath), m[1]))
	}
	for _, m := range resultsPath.FindAllStringSubmatch(doc, -1) {
		files = append(files, m[1])
	}
	for _, f := range files {
		if matches, _ := filepath.Glob(f); len(matches) == 0 {
			stale = append(stale, f)
		}
	}
	return stale
}

// kindRef matches a backquoted `Kind…` or `msg.Kind…` at the start of a
// code span: a wire kind the doc says exists.
var kindRef = regexp.MustCompile("`(?:msg\\.)?(Kind[A-Za-z0-9_]+)")

// unknownKinds returns the kind names doc cites that declared lacks.
func unknownKinds(doc string, declared map[string]bool) []string {
	var unknown []string
	for _, m := range kindRef.FindAllStringSubmatch(doc, -1) {
		if !declared[m[1]] {
			unknown = append(unknown, m[1])
		}
	}
	return unknown
}

// msgConsts collects the names of the constants internal/msg declares.
func msgConsts(t *testing.T) map[string]bool {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("internal", "msg", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						declared[name.Name] = true
					}
				}
			}
		}
	}
	return declared
}

func TestDocsNameRealTargetsAndFiles(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets = append(targets, m[1])
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...)
	kinds := msgConsts(t)
	if !kinds["KindGet"] {
		t.Fatal("internal/msg declares no KindGet: the constant scan itself is broken")
	}
	cited, kindsCited := 0, 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited += len(makeCmd.FindAllString(string(src), -1)) + len(resultsPath.FindAllString(string(src), -1))
		kindsCited += len(kindRef.FindAllString(string(src), -1))
		for _, ref := range staleDocRefs(doc, string(src), targets) {
			t.Errorf("%s names %s, which does not exist", doc, ref)
		}
		for _, kind := range unknownKinds(string(src), kinds) {
			t.Errorf("%s names %s, which internal/msg does not declare", doc, kind)
		}
	}
	if cited == 0 {
		t.Fatal("found no `make` target or results/ path in any doc: the scan itself is broken")
	}
	if kindsCited == 0 {
		t.Fatal("found no `Kind…` in any doc: the kind scan itself is broken")
	}

	// The check must bite: a dead target, a dead link and a dead path are
	// reported, next to live ones and to prose that merely says "make".
	doc := "To make the figures run `make figures` or `make no-such-target`; see " +
		"[fig](../results/figure5.csv), [gone](../results/gone.json), " +
		"`results/figure*.csv` and `results/gone.txt`."
	got := staleDocRefs(filepath.Join("docs", "X.md"), doc, targets)
	want := []string{"make no-such-target", filepath.Join("results", "gone.json"), "results/gone.txt"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("stale references in a doc with three dead ones = %q, want %q", got, want)
	}

	// A retired kind is reported, next to live ones, a call and prose. Its
	// name is spelled in two parts so that a grep of the Go sources for it
	// finds none.
	retired := "Kind" + "Batch"
	doc = "`KindGet` and `msg.KindNotify` are served; `" + retired + "` is not, nor is `msg.Kind(10)` a Kind."
	if got := unknownKinds(doc, kinds); len(got) != 1 || got[0] != retired {
		t.Fatalf("unknown kinds in a doc citing %s = %q, want [%s]", retired, got, retired)
	}
}
