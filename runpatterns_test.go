package lesslog

// A `go test -run 'TestA|TestB'` step keeps passing when TestB is deleted
// or renamed — it just runs less. This check makes that a failure: every
// Test name a -run pattern in CI or the Makefile spells out must be a
// `func Test…` somewhere in the tree.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
